"""Streaming trace rollups: memory-bounded fleet aggregation.

A :class:`TraceRollup` consumes trace events one at a time — as a tracer
observer during a live run, or from :func:`iter_trace_events` over a
JSONL file — and keeps only bounded state: per-event-type counters and
reservoir histograms of the QoE-bearing quantities (stall durations,
session stall totals, mean scores, bufRatio, startup delay).  Below the
:data:`~repro.obs.metrics.HISTOGRAM_RESERVOIR` threshold the percentiles
are exact; past it the fixed-seed reservoir keeps them deterministic
estimates.  Per-session throughput rates feed a streaming Jain index.

Fleet sampling is head-based and hash-keyed: whether a session is kept
depends only on ``(sample_seed, session_id)``, never on arrival order or
worker partitioning, so the sampled set — and therefore the rollup — is
byte-identical at any worker count.  Rollups serialize via
:meth:`TraceRollup.to_dict` and fold together with :meth:`merge`, which
is how sweep and chaos workers ship per-cell rollups across fork
boundaries for a deterministic fleet-wide aggregate.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from repro.obs import events as ev
from repro.obs.events import TraceEvent
from repro.obs.events import iter_trace_events  # noqa: F401 - re-exported
from repro.obs.metrics import Histogram

ROLLUP_VERSION = 1

#: Distribution names tracked by every rollup, in render order.
DISTRIBUTIONS = (
    "stall_seconds",      # per-stall-event duration
    "session_stall_s",    # per-session total stall
    "qoe_score",          # per-session mean SSIM
    "buf_ratio",          # per-session stall/media ratio
    "startup_delay_s",    # per-session startup delay
)

#: Event types the aggregator branches on; everything else only counts.
#: One membership test short-circuits the dispatch chain on the hot path.
_TRACKED_TYPES = frozenset(
    (ev.STALL, ev.DOWNLOAD_END, ev.SESSION_START, ev.SESSION_END)
)


# ---------------------------------------------------------------------------
# Deterministic head sampling.
# ---------------------------------------------------------------------------
def session_sample_key(session_id: str, seed: int = 0) -> float:
    """Deterministic uniform key in [0, 1) from ``(seed, session_id)``.

    A seeded hash rather than an RNG stream: the decision for a session
    is a pure function of its identity, independent of how many other
    sessions were seen first or which worker processed it.
    """
    digest = hashlib.sha256(
        f"rollup:{seed}:{session_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def session_sampled(
    session_id: str, sample_rate: float, seed: int = 0
) -> bool:
    """Whether ``session_id`` is in the sampled set at ``sample_rate``."""
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    return session_sample_key(session_id, seed) < sample_rate


# ---------------------------------------------------------------------------
# The rollup aggregator.
# ---------------------------------------------------------------------------
class TraceRollup:
    """Streaming aggregator over a trace event stream.

    Feed it events (``tracer.add_observer(rollup.feed)`` or any loop
    over :func:`iter_trace_events`); read :meth:`summary` at the end.
    State is bounded: counters, five reservoir histograms, one cached
    sampling decision per session, and one throughput rate per finished
    session (for Jain's index).
    """

    def __init__(self, sample_rate: float = 1.0, sample_seed: int = 0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate {sample_rate} out of [0, 1]")
        self.sample_rate = float(sample_rate)
        self.sample_seed = int(sample_seed)
        self.events_seen = 0        # every event offered
        self.events = 0             # events from sampled sessions
        self.sessions_seen = 0
        self.sessions_sampled = 0
        self.event_counts: Dict[str, int] = {}
        self._hists = {name: Histogram() for name in DISTRIBUTIONS}
        self._included: Dict[object, bool] = {}
        self._live: Dict[object, List[float]] = {}  # sid -> [start_t, bytes]
        self._rates: List[float] = []

    # ------------------------------------------------------------------
    def feed(self, event: TraceEvent) -> None:
        """Consume one event (tracer-observer signature)."""
        self.events_seen += 1
        fields = event.fields
        sid = fields.get("session_id")
        if sid is not None:
            included = self._included.get(sid)
            if included is None:
                self.sessions_seen += 1
                included = session_sampled(
                    sid, self.sample_rate, self.sample_seed
                )
                self._included[sid] = included
                if included:
                    self.sessions_sampled += 1
            if not included:
                return
        self.events += 1
        counts = self.event_counts
        type_ = event.type
        try:
            counts[type_] += 1
        except KeyError:
            counts[type_] = 1
        if type_ not in _TRACKED_TYPES:
            return
        if type_ == ev.STALL:
            self._hists["stall_seconds"].observe(float(fields["duration"]))
        elif type_ == ev.DOWNLOAD_END:
            live = self._live.get(sid)
            if live is not None:
                live[1] += float(fields["bytes_delivered"])
        elif type_ == ev.SESSION_START:
            if sid is None:
                # Solo traces carry no session_id; count the session via
                # its start event so fleet and solo summaries agree.
                self.sessions_seen += 1
                self.sessions_sampled += 1
            self._live[sid] = [event.t, 0.0]
        elif type_ == ev.SESSION_END:
            self._hists["session_stall_s"].observe(
                float(fields["total_stall"])
            )
            self._hists["qoe_score"].observe(float(fields["mean_score"]))
            self._hists["buf_ratio"].observe(float(fields["buf_ratio"]))
            self._hists["startup_delay_s"].observe(
                float(fields["startup_delay"])
            )
            live = self._live.pop(sid, None)
            if live is not None:
                wall = event.t - live[0]
                rate = live[1] * 8.0 / wall / 1e6 if wall > 0 else 0.0
                self._rates.append(rate)

    # ------------------------------------------------------------------
    @property
    def jain_index(self) -> float:
        """Jain fairness over per-session delivered throughput (Mbit/s)."""
        rates = self._rates
        if not rates:
            return 1.0
        total = sum(rates)
        square = sum(r * r for r in rates)
        if total == 0.0 or square == 0.0:
            return 1.0
        return total * total / (len(rates) * square)

    def percentile(self, distribution: str, q: float) -> float:
        """Nearest-rank percentile of one tracked distribution."""
        if distribution not in self._hists:
            raise KeyError(
                f"unknown distribution {distribution!r}; tracked: "
                f"{', '.join(DISTRIBUTIONS)}"
            )
        return self._hists[distribution].percentile(q)

    def summary(self) -> Dict[str, object]:
        """Deterministic snapshot: counters, tails, fairness."""
        out: Dict[str, object] = {
            "rollup_version": ROLLUP_VERSION,
            "sample_rate": self.sample_rate,
            "sample_seed": self.sample_seed,
            "events_seen": self.events_seen,
            "events": self.events,
            "sessions_seen": self.sessions_seen,
            "sessions_sampled": self.sessions_sampled,
            "event_counts": dict(sorted(self.event_counts.items())),
        }
        for name in DISTRIBUTIONS:
            out[name] = _distribution(self._hists[name])
        out["jain_index"] = self.jain_index
        return out

    # ------------------------------------------------------------------
    def merge(self, other: "TraceRollup") -> None:
        """Fold another rollup's state in (same sampling parameters)."""
        if (other.sample_rate, other.sample_seed) != (
            self.sample_rate, self.sample_seed,
        ):
            raise ValueError(
                "cannot merge rollups with different sampling parameters"
            )
        self.events_seen += other.events_seen
        self.events += other.events
        self.sessions_seen += other.sessions_seen
        self.sessions_sampled += other.sessions_sampled
        for type_, count in other.event_counts.items():
            self.event_counts[type_] = (
                self.event_counts.get(type_, 0) + count
            )
        for name in DISTRIBUTIONS:
            self._hists[name].merge(other._hists[name])
        self._rates.extend(other._rates)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready state for shipping across process boundaries."""
        return {
            "rollup_version": ROLLUP_VERSION,
            "sample_rate": self.sample_rate,
            "sample_seed": self.sample_seed,
            "events_seen": self.events_seen,
            "events": self.events,
            "sessions_seen": self.sessions_seen,
            "sessions_sampled": self.sessions_sampled,
            "event_counts": dict(sorted(self.event_counts.items())),
            "hists": {
                name: self._hists[name].state_dict()
                for name in DISTRIBUTIONS
            },
            "rates": list(self._rates),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceRollup":
        """Rebuild a rollup from :meth:`to_dict` output."""
        version = data.get("rollup_version")
        if version != ROLLUP_VERSION:
            raise ValueError(f"unsupported rollup version {version!r}")
        rollup = cls(
            sample_rate=float(data["sample_rate"]),
            sample_seed=int(data["sample_seed"]),
        )
        rollup.events_seen = int(data["events_seen"])
        rollup.events = int(data["events"])
        rollup.sessions_seen = int(data["sessions_seen"])
        rollup.sessions_sampled = int(data["sessions_sampled"])
        rollup.event_counts = {
            str(k): int(v) for k, v in data["event_counts"].items()
        }
        rollup._hists = {
            name: Histogram.from_state(state)
            for name, state in data["hists"].items()
        }
        rollup._rates = [float(r) for r in data["rates"]]
        return rollup


def merge_rollups(dicts: Iterable[Dict[str, object]]) -> TraceRollup:
    """Fold serialized rollups (in iteration order) into one aggregate."""
    combined: Optional[TraceRollup] = None
    for data in dicts:
        rollup = TraceRollup.from_dict(data)
        if combined is None:
            combined = rollup
        else:
            combined.merge(rollup)
    return combined if combined is not None else TraceRollup()


def _distribution(hist: Histogram) -> Dict[str, float]:
    """count/sum/mean plus the tail percentiles the fleet view needs."""
    return {
        "count": float(hist.count),
        "sum": hist.total,
        "mean": hist.mean,
        "p50": hist.percentile(50),
        "p90": hist.percentile(90),
        "p99": hist.percentile(99),
        "p999": hist.percentile(99.9),
    }


def format_rollup(summary: Dict[str, object]) -> str:
    """Human-readable fleet rollup block."""
    lines = ["=== fleet rollup ==="]
    lines.append(
        f"events {summary['events']}/{summary['events_seen']} aggregated, "
        f"sessions {summary['sessions_sampled']}/{summary['sessions_seen']} "
        f"sampled (rate {summary['sample_rate']:g}, "
        f"seed {summary['sample_seed']})"
    )
    labels = (
        ("stall_seconds", "stall event s"),
        ("session_stall_s", "session stall s"),
        ("qoe_score", "QoE score"),
        ("buf_ratio", "bufRatio"),
        ("startup_delay_s", "startup s"),
    )
    for name, label in labels:
        dist = summary[name]
        lines.append(
            f"{label:16s} n={dist['count']:g} mean={dist['mean']:.4g} "
            f"p50={dist['p50']:.4g} p99={dist['p99']:.4g} "
            f"p99.9={dist['p999']:.4g}"
        )
    lines.append(f"jain index {summary['jain_index']:.4f}")
    return "\n".join(lines)
