"""Process-wide metrics registry: counters, gauges and histograms.

Instruments the hot layers of the stack (transport rounds, link drops,
ABR control actions, experiment sessions) with labeled series, prometheus
style but zero-dependency::

    registry = get_registry()
    drops = registry.counter("link.dropped_packets", trace="verizon")
    drops.inc(dropped)

Metric objects are cheap to hold, so instrumented classes look them up
once at construction and call ``inc``/``set``/``observe`` (a single
attribute update) on the hot path.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, buffer level)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


#: Histogram sample cap: below it percentiles are exact; past it a
#: deterministic reservoir (algorithm R with a fixed-seed RNG) keeps a
#: uniform sample, bounding memory and percentile cost while ``count``,
#: ``sum`` and ``mean`` stay exact.
HISTOGRAM_RESERVOIR = 4096


class Histogram:
    """Sample distribution with nearest-rank percentiles.

    Up to :data:`HISTOGRAM_RESERVOIR` samples are kept verbatim, so the
    percentiles of typical simulation workloads (thousands of values)
    are exact and deterministic.  Beyond the cap the samples form a
    uniform reservoir — percentiles become estimates, while ``count``,
    ``sum`` and ``mean`` remain exact.  The sorted view is cached, so a
    ``summary()`` costs one sort regardless of how many percentiles it
    reads.
    """

    __slots__ = (
        "_values", "_sorted", "_seen", "_count", "_rng", "_reservoir",
        "total",
    )

    def __init__(self, reservoir: int = HISTOGRAM_RESERVOIR) -> None:
        if reservoir <= 0:
            raise ValueError("histogram reservoir must be positive")
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._seen = 0  # samples offered to the reservoir
        self._count = 0  # samples observed (exact, never decays)
        self._rng: Optional[random.Random] = None
        self.total = 0.0
        self._reservoir = reservoir

    def observe(self, value: float) -> None:
        self._count += 1
        self.total += value
        self._add_sample(float(value))

    def _add_sample(self, value: float) -> None:
        """Admit one sample to the (bounded) reservoir."""
        self._seen += 1
        if len(self._values) < self._reservoir:
            self._values.append(value)
            self._sorted = None
            return
        if self._rng is None:
            # Fixed seed: reservoir contents are a pure function of the
            # observation sequence, keeping seeded runs reproducible.
            self._rng = random.Random(0x5EED)
        slot = self._rng.randrange(self._seen)
        if slot < self._reservoir:
            self._values[slot] = value
            self._sorted = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self.total / self._count if self._count else 0.0

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; ``q`` in [0, 100]."""
        if not self._values:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} out of [0, 100]")
        ordered = self._ordered()
        if q == 0.0:
            return ordered[0]
        rank = math.ceil(q / 100.0 * len(ordered))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples and exact aggregates in."""
        for value in other._values:
            self._add_sample(value)
        self._count += other._count
        self.total += other.total

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: enough to rebuild the reservoir exactly."""
        return {
            "reservoir": self._reservoir,
            "values": list(self._values),
            "seen": self._seen,
            "count": self._count,
            "total": self.total,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`state_dict` output.

        The restored reservoir holds the same samples in the same order,
        so percentiles — and any subsequent :meth:`merge` — match what
        the original instance would have produced.
        """
        hist = cls(reservoir=int(state["reservoir"]))
        hist._values = [float(v) for v in state["values"]]
        hist._seen = int(state["seen"])
        hist._count = int(state["count"])
        hist.total = float(state["total"])
        return hist


class MetricsRegistry:
    """Get-or-create registry of labeled metric series."""

    def __init__(self) -> None:
        self._counters: Dict[LabelKey, Counter] = {}
        self._gauges: Dict[LabelKey, Gauge] = {}
        self._histograms: Dict[LabelKey, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels) -> Histogram:
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every series, keyed by formatted series name."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for (name, labels), metric in sorted(self._counters.items()):
            out["counters"][format_series(name, labels)] = metric.value
        for (name, labels), metric in sorted(self._gauges.items()):
            out["gauges"][format_series(name, labels)] = metric.value
        for (name, labels), metric in sorted(self._histograms.items()):
            out["histograms"][format_series(name, labels)] = metric.summary()
        return out

    def render(self, prefix: Optional[str] = None) -> str:
        """Human-readable dump (``prefix`` filters series names)."""
        lines: List[str] = ["=== metrics ==="]
        snapshot = self.dump()
        for series, value in snapshot["counters"].items():
            if prefix and not series.startswith(prefix):
                continue
            lines.append(f"counter   {series} = {value:g}")
        for series, value in snapshot["gauges"].items():
            if prefix and not series.startswith(prefix):
                continue
            lines.append(f"gauge     {series} = {value:g}")
        for series, summary in snapshot["histograms"].items():
            if prefix and not series.startswith(prefix):
                continue
            lines.append(
                f"histogram {series} count={summary['count']:g} "
                f"mean={summary['mean']:.6g} p50={summary['p50']:.6g} "
                f"p90={summary['p90']:.6g} p99={summary['p99']:.6g}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (see :meth:`merge_state`)."""
        self.merge_state(other.state())

    def state(self) -> Dict[str, List]:
        """JSON-ready snapshot of every series, for :meth:`merge_state`.

        Each series is ``[name, [[label, value], ...], payload]``, the
        payload a counter's or gauge's value or a histogram's
        :meth:`Histogram.state_dict`.  A forked task ships its scope's
        state to the parent, which folds it in.
        """
        return {
            "counters": [
                [name, labels, metric.value]
                for (name, labels), metric in self._counters.items()
            ],
            "gauges": [
                [name, labels, metric.value]
                for (name, labels), metric in self._gauges.items()
            ],
            "histograms": [
                [name, labels, metric.state_dict()]
                for (name, labels), metric in self._histograms.items()
            ],
        }

    def merge_state(self, state: Dict[str, List]) -> None:
        """Fold a :meth:`state` snapshot in: counters add, gauges take
        the snapshot's value, histograms merge sample reservoirs."""
        for name, labels, value in state["counters"]:
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in state["gauges"]:
            self.gauge(name, **dict(labels)).set(value)
        for name, labels, payload in state["histograms"]:
            self.histogram(name, **dict(labels)).merge(
                Histogram.from_state(payload)
            )


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def reset_registry() -> None:
    """Clear the default registry (test isolation, fresh experiments)."""
    _DEFAULT_REGISTRY.reset()


@contextmanager
def scoped_registry(merge: bool = True) -> Iterator[MetricsRegistry]:
    """Swap in a fresh default registry for the duration of a block.

    Code instrumented via :func:`get_registry` records into the scope's
    registry, so repeated workloads (the 30 repetitions of an experiment
    cell) report from a clean slate instead of accumulating process-wide
    state.  On exit the scope is folded back into the enclosing registry
    (``merge=False`` discards it instead), so outer consumers — e.g. the
    CLI's ``--metrics`` dump — still see the totals.
    """
    global _DEFAULT_REGISTRY
    parent = _DEFAULT_REGISTRY
    child = MetricsRegistry()
    _DEFAULT_REGISTRY = child
    try:
        yield child
    finally:
        _DEFAULT_REGISTRY = parent
        if merge:
            parent.merge(child)
