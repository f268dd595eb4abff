"""Fleet-scale sharded simulation: thousands of clients across cells.

VOXEL's testbed streams one client at a time, but the cross-layer
claims only matter at scale — fleets of heterogeneous clients
contending in many cells, where the stall *tails* (p99/p99.9) dominate
user experience.  This module generalizes the multiclient substrate
into a sharded fleet engine:

* :class:`FleetSpec` — a frozen, hashable description of a fleet: a
  weighted population of :class:`ClientGroup` slices expanded
  deterministically from the seed, partitioned round-robin into
  ``shards`` cells, each cell with its own bottleneck trace weather
  (``seed + shard``) and fault plan.
* :func:`run_fleet` — the per-shard executor.  Each worker builds one
  cell with :func:`~repro.experiments.multiclient.build_shard`, runs
  every session on its own :class:`~repro.network.events.SimKernel`,
  and returns **mergeable artifacts only**: a serialized
  :class:`~repro.obs.rollup.TraceRollup`, a serialized
  :class:`~repro.obs.attribution.FleetAttributor`, Jain sufficient
  statistics and per-group aggregate sums.  The parent folds them in
  shard order — never raw traces or per-event history — so peak
  memory is O(shards), and the fold is byte-identical at any worker
  count (``workers=1`` runs the exact same worker function serially).
* :meth:`FleetResult.report` / :meth:`FleetResult.fleet_hash` — the
  deterministic fleet report (QoE distribution percentiles, stall
  tails from reservoir histograms, per-shard and fleet-wide Jain's
  index, causal attribution partition) and its canonical-JSON content
  hash, the anchor the worker-count byte-identity claim is pinned to.

Determinism by construction: the population expansion hashes
``(seed, client index)``, shard membership is a pure function of the
client index, session ids are globally unique (so hash-keyed rollup
sampling is worker-partition invariant), and every per-shard artifact
is folded in shard order.
"""

from __future__ import annotations

import functools
import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.core.spec import ScenarioSpec, reliability_mode
from repro.experiments.execution import (
    CheckpointStore,
    ExecutionError,
    ExecutionPolicy,
    execute,
)
from repro.experiments.multiclient import DEFAULT_SPECS, run_multiclient
from repro.obs.attribution import FleetAttributor, format_attribution
from repro.obs.rollup import TraceRollup, format_rollup
from repro.prep.prepare import PreparedVideo, get_prepared

FLEET_REPORT_VERSION = 1


@dataclass(frozen=True)
class ClientGroup:
    """One weighted slice of a fleet population.

    A group is the per-client part of a
    :class:`~repro.core.spec.ScenarioSpec` plus a sampling ``weight``:
    client *i* of the fleet draws its group from the weight
    distribution at the point ``sha256(seed, i)`` lands, so the
    realized mix approximates the weights and is a pure function of
    the spec.
    """

    abr: str = "bola"
    video: str = "bbb"
    partially_reliable: bool = True
    buffer_segments: int = 3
    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(
                f"group weight must be > 0, got {self.weight}"
            )
        if self.buffer_segments < 1:
            raise ValueError("buffer_segments must be >= 1")

    def label(self) -> str:
        flavour = "Q*" if self.partially_reliable else "Q"
        return f"{self.abr}/{flavour}/{self.video}/buf{self.buffer_segments}"

    def to_scenario(self, network: ScenarioSpec) -> ScenarioSpec:
        """This group's client on ``network`` (a shard's shared fields)."""
        return network.with_(
            abr=self.abr,
            video=self.video,
            reliability=reliability_mode(self.partially_reliable),
            buffer_segments=self.buffer_segments,
        )

    def to_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict) -> "ClientGroup":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ClientGroup field(s) {unknown}; known fields: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**data)


#: The default mixed fleet: the multiclient default mix (both ABRs,
#: both transport flavours) as a population of equal weight.
DEFAULT_GROUPS = tuple(
    ClientGroup(
        abr=spec.abr,
        video=spec.video,
        partially_reliable=spec.partially_reliable,
        buffer_segments=spec.buffer_segments,
    )
    for spec in DEFAULT_SPECS
)


@dataclass(frozen=True)
class FleetSpec:
    """One frozen, hashable fleet configuration.

    Mirrors the :class:`~repro.core.spec.ScenarioSpec` contract:
    frozen, JSON-round-trippable (:meth:`to_dict`/:meth:`from_dict`
    with unknown keys rejected), and carrying a stable canonical-JSON
    content hash (:meth:`spec_hash`) independent of process, platform,
    and ``PYTHONHASHSEED``.
    """

    clients: int = 1000
    shards: int = 8
    groups: Tuple[ClientGroup, ...] = DEFAULT_GROUPS
    trace: str = "verizon"
    seed: int = 0
    backend: str = "round"
    queue_packets: int = 32
    base_rtt: float = 0.060
    faults: Optional[Dict] = None
    request_timeout_s: Optional[float] = None
    retry_budget: int = 3
    retry_backoff_s: float = 0.5
    sample_rate: float = 1.0
    sample_seed: int = 0

    def __post_init__(self):
        if isinstance(self.groups, list):
            object.__setattr__(self, "groups", tuple(self.groups))
        if self.clients < 1:
            raise ValueError("a fleet needs at least one client")
        if self.shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if self.shards > self.clients:
            raise ValueError(
                f"{self.shards} shards for {self.clients} clients: "
                "every shard must hold at least one client"
            )
        if not self.groups:
            raise ValueError("a fleet needs at least one client group")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample rate {self.sample_rate} out of [0, 1]"
            )

    # ------------------------------------------------------------------
    #: Fields omitted from the canonical JSON (and the hash) at their
    #: defaults, so fleets that don't use them keep stable hashes as
    #: new knobs are added.
    _HASH_NEUTRAL_DEFAULTS = {
        "faults": None,
        "request_timeout_s": None,
        "retry_budget": 3,
        "retry_backoff_s": 0.5,
    }

    def to_dict(self) -> Dict:
        """Plain JSON-ready dict (groups serialized as objects)."""
        data: Dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._HASH_NEUTRAL_DEFAULTS:
                if value == self._HASH_NEUTRAL_DEFAULTS[f.name]:
                    continue
            if f.name == "groups":
                value = [group.to_dict() for group in value]
            data[f.name] = value
        return data

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "FleetSpec":
        """Build a spec from a mapping, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ValueError(
                f"fleet spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown FleetSpec field(s) {unknown}; known fields: "
                f"{', '.join(sorted(known))}"
            )
        kwargs = dict(data)
        if "groups" in kwargs:
            kwargs["groups"] = tuple(
                ClientGroup.from_dict(group) for group in kwargs["groups"]
            )
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable 12-hex-digit content hash of the canonical JSON."""
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()[:12]

    def __hash__(self) -> int:  # faults is a dict; hash by content
        return hash(self.spec_hash())

    def with_(self, **overrides) -> "FleetSpec":
        """A copy with fields replaced (frozen-dataclass convenience)."""
        return replace(self, **overrides)


# ---------------------------------------------------------------------------
# Deterministic population expansion and shard assignment.
# ---------------------------------------------------------------------------
def _client_point(seed: int, index: int) -> float:
    """Client *i*'s draw in [0, 1): a pure function of (seed, index).

    Same construction as the rollup's hash-keyed session sampling —
    sha256, never Python's randomized ``hash()`` — so the population
    is identical across processes, platforms, and worker counts.
    """
    digest = hashlib.sha256(f"{seed}:client:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def group_assignment(spec: FleetSpec) -> List[int]:
    """Group index for every client, expanded from the seed.

    Client *i* picks the group whose cumulative-weight interval
    contains ``_client_point(seed, i) * total_weight``.  A single
    group (or one carrying all the weight) degenerates to a
    homogeneous fleet.
    """
    cumulative: List[float] = []
    total = 0.0
    for group in spec.groups:
        total += group.weight
        cumulative.append(total)
    out = []
    last = len(spec.groups) - 1
    for index in range(spec.clients):
        point = _client_point(spec.seed, index) * total
        out.append(min(bisect_right(cumulative, point), last))
    return out


def shard_network(spec: FleetSpec, shard: int) -> ScenarioSpec:
    """The fields every client of one shard shares: the fleet's network
    with the shard's own trace weather (seeded ``seed + shard``)."""
    return ScenarioSpec(
        trace=spec.trace,
        seed=spec.seed + shard,
        backend=spec.backend,
        queue_packets=spec.queue_packets,
        base_rtt=spec.base_rtt,
        faults=spec.faults,
        request_timeout_s=spec.request_timeout_s,
        retry_budget=spec.retry_budget,
        retry_backoff_s=spec.retry_backoff_s,
    )


def expand_population(spec: FleetSpec) -> List[ScenarioSpec]:
    """The full fleet population: the scenario each client streams."""
    return [
        spec.groups[g].to_scenario(shard_network(spec, i % spec.shards))
        for i, g in enumerate(group_assignment(spec))
    ]


def shard_clients(spec: FleetSpec, shard: int) -> List[int]:
    """Global client indices assigned to one shard (round-robin).

    Round-robin on the global index spreads every group across every
    shard and keeps membership a pure function of the index — no
    shard ever depends on another shard's contents.
    """
    if not 0 <= shard < spec.shards:
        raise ValueError(f"shard {shard} out of range [0, {spec.shards})")
    return list(range(shard, spec.clients, spec.shards))


def fleet_session_id(spec: FleetSpec, index: int, group: ClientGroup) -> str:
    """Globally unique session id for client ``index``.

    Uniqueness across shards matters: the rollup's head-sampling is a
    hash of ``(sample_seed, session_id)``, so reused per-shard ids
    would correlate sampling decisions between cells.
    """
    shard = index % spec.shards
    flavour = "Qstar" if group.partially_reliable else "Q"
    return f"s{shard}-f{index}-{group.abr}-{flavour}"


# ---------------------------------------------------------------------------
# The per-shard executor.
# ---------------------------------------------------------------------------
def _run_shard(
    spec: FleetSpec,
    prepared_map: Optional[Dict[str, PreparedVideo]],
    keep_rows: bool,
    shard: int,
) -> Dict:
    """Run one cell; return mergeable artifacts only (never traces)."""
    indices = shard_clients(spec, shard)
    assignment = group_assignment(spec)
    groups = [spec.groups[assignment[i]] for i in indices]
    network = shard_network(spec, shard)
    session_ids = [
        fleet_session_id(spec, i, group)
        for i, group in zip(indices, groups)
    ]
    rollup = TraceRollup(
        sample_rate=spec.sample_rate, sample_seed=spec.sample_seed
    )
    attributor = FleetAttributor()
    result = run_multiclient(
        [group.to_scenario(network) for group in groups],
        prepared_map=prepared_map,
        observers=[rollup.feed, attributor.feed],
        session_ids=session_ids,
    )
    rates = [client.throughput_mbps for client in result.clients]
    group_stats: Dict[str, Dict[str, float]] = {}
    for group, client in zip(groups, result.clients):
        stats = group_stats.setdefault(group.label(), {
            "clients": 0.0,
            "ssim_sum": 0.0,
            "bitrate_sum": 0.0,
            "stall_sum": 0.0,
            "rate_sum": 0.0,
        })
        metrics = client.metrics
        stats["clients"] += 1.0
        stats["ssim_sum"] += metrics.mean_ssim
        stats["bitrate_sum"] += metrics.avg_bitrate_kbps
        stats["stall_sum"] += metrics.total_stall
        stats["rate_sum"] += client.throughput_mbps
    out = {
        "shard": shard,
        "clients": len(groups),
        "trace_seed": network.seed,
        "jain": result.jain_index,
        # Jain sufficient statistics: (n, sum r, sum r^2) merge across
        # shards without retaining per-client rates in the parent.
        "rates": [
            float(len(rates)),
            float(sum(rates)),
            float(sum(r * r for r in rates)),
        ],
        "groups": group_stats,
        "rollup": rollup.to_dict(),
        "attribution": attributor.to_dict(),
    }
    if keep_rows:
        out["rows"] = result.rows()
    return out


@dataclass
class FleetResult:
    """The merged outcome of a fleet run (O(shards) state)."""

    spec: FleetSpec
    shards: List[Dict]                  # per-shard summary rows
    rollup: TraceRollup                 # fleet-wide distributions
    attribution: FleetAttributor        # fleet-wide causal partition
    groups: Dict[str, Dict[str, float]]  # per-group aggregate sums
    clients: int
    jain_index: float                   # fleet-wide, from merged stats
    rows: Optional[List[Dict]] = None   # per-client rows (keep_rows)
    #: Degraded-run block (missing shards, attempts, causes) when any
    #: shard exhausted its retry budget; None on whole runs.
    degraded: Optional[Dict] = None
    #: Shards folded from a checkpoint spool instead of re-run.
    resumed: int = 0

    def report(self) -> Dict:
        """The deterministic fleet report (wall-clock free).

        Everything here is a pure function of the spec: QoE and stall
        distributions (reservoir percentiles), per-shard and
        fleet-wide Jain's index, the attribution partition, and
        per-group means.  :meth:`fleet_hash` hashes this dict, so any
        nondeterminism anywhere in the stack shows up as a hash
        mismatch between worker counts.

        The ``degraded`` block appears *only* when shards are missing:
        whole runs — including interrupted-then-resumed ones — keep the
        exact report (and hash) of the pre-supervision era, which is
        what lets CI gate resume on byte-identity.
        """
        group_rows = {}
        for label in sorted(self.groups):
            stats = self.groups[label]
            count = stats["clients"] or 1.0
            group_rows[label] = {
                "clients": int(stats["clients"]),
                "mean_ssim": stats["ssim_sum"] / count,
                "mean_bitrate_kbps": stats["bitrate_sum"] / count,
                "mean_stall_s": stats["stall_sum"] / count,
                "mean_throughput_mbps": stats["rate_sum"] / count,
            }
        report = {
            "fleet_version": FLEET_REPORT_VERSION,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "clients": self.clients,
            "shards": self.shards,
            "jain": {
                "fleet": self.jain_index,
                "per_shard": [row["jain"] for row in self.shards],
            },
            "rollup": self.rollup.summary(),
            "attribution": self.attribution.combined().to_dict(),
            "groups": group_rows,
        }
        if self.degraded is not None:
            report["degraded"] = self.degraded
        return report

    def fleet_hash(self) -> str:
        """16-hex content hash of the canonical report JSON."""
        payload = json.dumps(
            self.report(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def prewarm_catalog(
    spec: FleetSpec,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
) -> None:
    """Prepare every catalog video the population of ``spec`` streams.

    Forked workers inherit the process cache, and the serial path skips
    repeated prepares.  ``repro fleet`` calls this before it starts its
    clock and profiler, so a ``--profile`` ledger covers the same work
    as a ``repro profile`` one: the simulation, not the offline prep.
    """
    names = {group.video for group in spec.groups}
    if prepared_map:
        names -= set(prepared_map)
    for name in sorted(names):
        get_prepared(name)


def run_fleet(
    spec: FleetSpec,
    workers: int = 1,
    prepared_map: Optional[Dict[str, PreparedVideo]] = None,
    keep_rows: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    strict: bool = True,
) -> FleetResult:
    """Run a fleet: shards fan out over workers, artifacts fold back.

    Args:
        spec: the frozen fleet description.
        workers: worker processes; shards are the unit of work.  Any K
            produces a byte-identical :meth:`FleetResult.report` (and
            therefore :meth:`~FleetResult.fleet_hash`) to ``workers=1``
            — the serial path runs the exact same shard worker, and
            artifacts fold in shard order either way.
        prepared_map: video name -> PreparedVideo for non-catalog
            videos (fixtures, benchmarks); catalog videos are
            pre-warmed into the process cache before forking so
            children inherit them by memory snapshot.
        keep_rows: retain per-client result rows on the result.  Off
            by default: rows are O(clients), and the fleet report
            doesn't need them.
        policy: supervision knobs (per-shard deadline, retry budget,
            backoff) for the resilient pool; default
            :data:`~repro.experiments.execution.DEFAULT_POLICY`.
        checkpoint_dir: crash-safe spool directory.  Completed shard
            artifacts are written atomically as they land, keyed by the
            fleet's ``spec_hash``; re-running with the same directory
            folds spooled shards from disk instead of re-running them
            (:attr:`FleetResult.resumed` counts them), and the resumed
            report is byte-identical to an uninterrupted run.
        strict: raise :class:`~repro.experiments.execution.ExecutionError`
            when any shard exhausts its retry budget (library default).
            With ``strict=False`` the run degrades gracefully instead:
            missing shards are dropped from the fold and documented in
            :attr:`FleetResult.degraded`, and the partial statistics
            remain valid for the shards that completed.

    Under an installed profiler (:func:`~repro.obs.spans.profiled`)
    :func:`~repro.experiments.execution.execute` runs every shard under
    its own and folds them in shard order; the span tree is
    byte-identical at any worker count.
    """
    prewarm_catalog(spec, prepared_map)

    checkpoint = None
    if checkpoint_dir is not None:
        # keep_rows changes the artifact shape, so it is part of the
        # spool identity (the spool adds whether the run is profiled).
        checkpoint = CheckpointStore(
            checkpoint_dir,
            run_key=f"fleet:{spec.spec_hash()}:rows={int(keep_rows)}",
            tasks=spec.shards,
        )

    outcome = execute(
        functools.partial(_run_shard, spec, prepared_map, keep_rows),
        list(range(spec.shards)),
        workers=workers,
        policy=policy,
        labels=[f"shard {i}" for i in range(spec.shards)],
        checkpoint=checkpoint,
    )
    if strict and outcome.failures:
        raise ExecutionError(outcome.failures, total=spec.shards)

    # Fold in shard order — the other half of the determinism anchor.
    # Quarantined shards are None slots; the fold skips them (their
    # absence is documented in the degraded block).
    rollup: Optional[TraceRollup] = None
    attribution = FleetAttributor()
    shard_rows: List[Dict] = []
    groups: Dict[str, Dict[str, float]] = {}
    rate_n = 0.0
    rate_sum = 0.0
    rate_sq = 0.0
    total_clients = 0
    rows: Optional[List[Dict]] = [] if keep_rows else None
    failed = {failure.index for failure in outcome.failures}
    for shard_index, result in enumerate(outcome.results):
        if shard_index in failed:
            continue
        if rollup is None:
            rollup = TraceRollup.from_dict(result["rollup"])
        else:
            rollup.merge(TraceRollup.from_dict(result["rollup"]))
        attribution.merge(FleetAttributor.from_dict(result["attribution"]))
        shard_rows.append({
            "shard": result["shard"],
            "clients": result["clients"],
            "trace_seed": result["trace_seed"],
            "jain": result["jain"],
        })
        n, total, square = result["rates"]
        rate_n += n
        rate_sum += total
        rate_sq += square
        total_clients += result["clients"]
        for label, stats in result["groups"].items():
            merged = groups.setdefault(
                label, {key: 0.0 for key in stats}
            )
            for key, value in stats.items():
                merged[key] += value
        if rows is not None:
            rows.extend(result["rows"])
    if rate_n and rate_sq:
        jain = rate_sum * rate_sum / (rate_n * rate_sq)
    else:
        jain = 1.0
    return FleetResult(
        spec=spec,
        shards=shard_rows,
        rollup=rollup if rollup is not None else TraceRollup(
            sample_rate=spec.sample_rate, sample_seed=spec.sample_seed
        ),
        attribution=attribution,
        groups=groups,
        clients=total_clients,
        jain_index=jain,
        rows=rows,
        degraded=outcome.degraded(),
        resumed=outcome.resumed,
    )


def format_fleet_report(result: FleetResult) -> str:
    """Human-readable fleet report."""
    report = result.report()
    spec = result.spec
    lines = [
        f"=== fleet: {report['clients']} clients / "
        f"{len(report['shards'])} shards "
        f"(spec {report['spec_hash']}) ===",
        f"trace {spec.trace} seed {spec.seed} backend {spec.backend} "
        f"sample {spec.sample_rate:g}",
        f"{'shard':>5s} {'clients':>8s} {'seed':>6s} {'jain':>7s}",
    ]
    for row in report["shards"]:
        lines.append(
            f"{row['shard']:5d} {row['clients']:8d} "
            f"{row['trace_seed']:6d} {row['jain']:7.4f}"
        )
    lines.append(f"fleet Jain's index: {report['jain']['fleet']:.4f}")
    if "degraded" in report:
        block = report["degraded"]
        lines.append(
            f"DEGRADED: {block['completed']}/{block['total']} shards "
            f"completed; partial statistics below"
        )
        for missing in block["missing"]:
            lines.append(
                f"  missing {missing['label']} after "
                f"{missing['attempts']} attempt(s): "
                f"{', '.join(missing['causes'])}"
            )
    lines.append("")
    for label, stats in report["groups"].items():
        lines.append(
            f"group {label:28s} n={stats['clients']:<5d} "
            f"ssim={stats['mean_ssim']:.3f} "
            f"kbps={stats['mean_bitrate_kbps']:.0f} "
            f"stall={stats['mean_stall_s']:.2f}s "
            f"mbps={stats['mean_throughput_mbps']:.2f}"
        )
    lines.append("")
    lines.append(format_rollup(report["rollup"]))
    lines.append(format_attribution(result.attribution.combined()))
    lines.append(f"fleet hash {result.fleet_hash()}")
    return "\n".join(lines)
