"""Network bandwidth traces (§5, "Network traces").

The paper replays five prerecorded traces — three LTE traces (T-Mobile,
Verizon, AT&T) from Winstein et al., a Norwegian 3G commute trace from
Riiser et al., and an FCC fixed-line broadband trace — all *linearly
offset* so their average matches the 10 Mbps top-level bitrate.  The
offset preserves the absolute variations; what distinguishes the traces
is their variability (std-dev ~9-10 Mbps for T-Mobile/Verizon, 2.88 for
AT&T, 2.35 for FCC, 1.1 for 3G).

The raw recordings are not redistributable here, so this module generates
*synthetic* traces from seeded regime-switching models calibrated to the
same mean/std-dev/burstiness regime, plus the synthetic constant and step
traces of §5.2, an "in-the-wild" WiFi-like trace, and the 86-trace 3G
commute corpus used for Fig. 10 (low average bandwidth, unscaled): the
``3g-corpus`` trace, whose ``index`` kwarg picks trace *i* of the corpus
drawn at the spec's seed (``trace="3g-corpus", trace_kwargs={"index": i}``).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.registry import Registry

#: The network-trace registry.  Factories take ``seed`` plus generator
#: kwargs (``duration``, ...).  ``repro list`` shows the descriptions;
#: :func:`trace_generator` resolves names (including the parametrized
#: ``constant:<mbps>`` form handled before the registry lookup).
TRACES = Registry("trace")


@dataclass
class NetworkTrace:
    """A bandwidth time series with 1-second resolution.

    The trace loops when playback outlasts it, and supports the paper's
    per-trial *linear shift* (each of the 30 repetitions shifts the trace
    by d/30 seconds to probe interactions between throughput variations
    and VBR segment-size variations).
    """

    name: str
    samples_mbps: np.ndarray  # one sample per second
    shift_s: float = 0.0

    def __post_init__(self) -> None:
        self.samples_mbps = np.asarray(self.samples_mbps, dtype=float)
        if self.samples_mbps.ndim != 1 or len(self.samples_mbps) == 0:
            raise ValueError("trace needs a 1-D, non-empty sample array")
        if (self.samples_mbps < 0).any():
            raise ValueError("trace samples must be non-negative")
        # Per-round lookups index one scalar at a time, where a plain
        # Python list beats ndarray scalar extraction severalfold.
        # ``tolist()`` round-trips float64 exactly, so values are
        # bit-identical to the array path.
        self._samples_list = self.samples_mbps.tolist()
        self._num_samples = len(self._samples_list)
        # Constant traces (the fleet default) skip the floor/mod lookup;
        # the all-equal scan runs once per trace construction.
        first = self._samples_list[0]
        self._const_mbps = (
            first if self._num_samples == 1
            or bool((self.samples_mbps == first).all()) else None
        )

    @property
    def duration(self) -> float:
        return float(len(self.samples_mbps))

    def bandwidth_mbps(self, t: float) -> float:
        """Available bandwidth at absolute time ``t`` (loops)."""
        const = self._const_mbps
        if const is not None:
            return const
        # floor, not int(): truncation toward zero mis-indexes negative
        # shifted times by one sample.
        idx = math.floor(t + self.shift_s) % self._num_samples
        return self._samples_list[idx]

    def bandwidth_bps(self, t: float) -> float:
        return self.bandwidth_mbps(t) * 1e6

    def shifted(self, shift_s: float) -> "NetworkTrace":
        """A view of the same trace, shifted by ``shift_s`` seconds."""
        return NetworkTrace(
            name=self.name,
            samples_mbps=self.samples_mbps,
            shift_s=self.shift_s + shift_s,
        )

    def offset_to_mean(self, target_mbps: float, floor: float = 0.05
                       ) -> "NetworkTrace":
        """Linearly offset the trace so its mean matches ``target_mbps``.

        This is the paper's scaling: adding a constant keeps the absolute
        throughput variations intact.  Samples are floored at a small
        positive value (a link is never exactly dead for a full second).
        """
        delta = target_mbps - float(self.samples_mbps.mean())
        samples = np.maximum(self.samples_mbps + delta, floor)
        return NetworkTrace(name=self.name, samples_mbps=samples,
                            shift_s=self.shift_s)

    def mean_mbps(self) -> float:
        return float(self.samples_mbps.mean())

    def std_mbps(self) -> float:
        return float(self.samples_mbps.std())


def _seed_from(name: str, seed: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _regime_switching(
    rng: np.random.Generator,
    duration: int,
    levels_mbps: Sequence[float],
    stay_prob: float,
    sigma: float,
    outage_level: Optional[float] = None,
    outage_prob: float = 0.0,
    outage_mean_len: float = 3.0,
) -> np.ndarray:
    """Markov regime-switching bandwidth generator.

    The process hops between discrete capacity regimes (cell conditions)
    and jitters lognormally within a regime; optional outage regimes model
    the deep fades of challenging cellular traces.
    """
    samples = np.empty(duration)
    state = int(rng.integers(0, len(levels_mbps)))
    outage_left = 0
    for t in range(duration):
        if outage_left > 0:
            outage_left -= 1
            samples[t] = max(outage_level * rng.lognormal(0, 0.4), 0.01)
            continue
        if outage_level is not None and rng.random() < outage_prob:
            outage_left = max(int(rng.exponential(outage_mean_len)), 1)
            samples[t] = max(outage_level * rng.lognormal(0, 0.4), 0.01)
            continue
        if rng.random() > stay_prob:
            state = int(rng.integers(0, len(levels_mbps)))
        samples[t] = levels_mbps[state] * rng.lognormal(0, sigma)
    return samples


_DEFAULT_DURATION = 320  # seconds; slightly longer than a 75x4 s video


@TRACES.register(
    "tmobile",
    "T-Mobile-LTE-like: extreme variability, long fades "
    "(outage_level/outage_prob/outage_mean_len tunable)",
)
def tmobile_trace(
    seed: int = 0,
    duration: int = _DEFAULT_DURATION,
    outage_level: Optional[float] = 0.5,
    outage_prob: float = 0.028,
    outage_mean_len: float = 4.0,
) -> NetworkTrace:
    """T-Mobile-LTE-like: extreme variability (std ~10 Mbps), long fades."""
    rng = _seed_from("tmobile", seed)
    raw = _regime_switching(
        rng, duration,
        levels_mbps=[2.5, 7.0, 14.0],
        stay_prob=0.93, sigma=0.62,
        outage_level=outage_level, outage_prob=outage_prob,
        outage_mean_len=outage_mean_len,
    )
    return NetworkTrace("tmobile", raw).offset_to_mean(10.0)


@TRACES.register(
    "verizon",
    "Verizon-LTE-like: high variability, shorter fades "
    "(outage_level/outage_prob/outage_mean_len tunable)",
)
def verizon_trace(
    seed: int = 0,
    duration: int = _DEFAULT_DURATION,
    outage_level: Optional[float] = 1.5,
    outage_prob: float = 0.01,
    outage_mean_len: float = 2.0,
) -> NetworkTrace:
    """Verizon-LTE-like: high variability (std ~9 Mbps), shorter fades."""
    rng = _seed_from("verizon", seed)
    raw = _regime_switching(
        rng, duration,
        levels_mbps=[4.0, 8.5, 15.0],
        stay_prob=0.92, sigma=0.55,
        outage_level=outage_level, outage_prob=outage_prob,
        outage_mean_len=outage_mean_len,
    )
    return NetworkTrace("verizon", raw).offset_to_mean(10.0)


@TRACES.register(
    "att",
    "AT&T-LTE-like: mild variability, no deep fades by default "
    "(outage_level/outage_prob/outage_mean_len tunable)",
)
def att_trace(
    seed: int = 0,
    duration: int = _DEFAULT_DURATION,
    outage_level: Optional[float] = None,
    outage_prob: float = 0.0,
    outage_mean_len: float = 3.0,
) -> NetworkTrace:
    """AT&T-LTE-like: mild variability (std ~2.9 Mbps), no deep fades."""
    rng = _seed_from("att", seed)
    raw = _regime_switching(
        rng, duration,
        levels_mbps=[7.0, 10.0, 13.0],
        stay_prob=0.85, sigma=0.18,
        outage_level=outage_level, outage_prob=outage_prob,
        outage_mean_len=outage_mean_len,
    )
    return NetworkTrace("att", raw).offset_to_mean(10.0)


@TRACES.register(
    "3g",
    "Riiser 3G commute trace offset to 10 Mbps, low variability "
    "(outage_level/outage_prob/outage_mean_len tunable)",
    aliases=("threeg",),
)
def threeg_trace(
    seed: int = 0,
    duration: int = _DEFAULT_DURATION,
    outage_level: Optional[float] = None,
    outage_prob: float = 0.0,
    outage_mean_len: float = 3.0,
) -> NetworkTrace:
    """The Riiser 3G commute trace, offset to 10 Mbps (std ~1.1 Mbps)."""
    rng = _seed_from("threeg", seed)
    base = _regime_switching(
        rng, duration,
        levels_mbps=[1.2, 2.0, 2.8],
        stay_prob=0.9, sigma=0.25,
        outage_level=outage_level, outage_prob=outage_prob,
        outage_mean_len=outage_mean_len,
    )
    return NetworkTrace("3g", base).offset_to_mean(10.0)


@TRACES.register(
    "fcc",
    "FCC fixed-line broadband: stable with rare dips "
    "(outage_level/outage_prob/outage_mean_len tunable)",
)
def fcc_trace(
    seed: int = 0,
    duration: int = _DEFAULT_DURATION,
    outage_level: Optional[float] = 3.0,
    outage_prob: float = 0.02,
    outage_mean_len: float = 2.0,
) -> NetworkTrace:
    """FCC fixed-line broadband: stable with rare dips (std ~2.35 Mbps)."""
    rng = _seed_from("fcc", seed)
    raw = _regime_switching(
        rng, duration,
        levels_mbps=[9.0, 10.5, 11.5],
        stay_prob=0.93, sigma=0.1,
        outage_level=outage_level, outage_prob=outage_prob,
        outage_mean_len=outage_mean_len,
    )
    return NetworkTrace("fcc", raw).offset_to_mean(10.0)


@TRACES.register(
    "wild",
    "in-the-wild WiFi-like path: headroom with contention dips "
    "(outage_level/outage_prob/outage_mean_len tunable)",
)
def wild_trace(
    seed: int = 0,
    duration: int = _DEFAULT_DURATION,
    outage_level: Optional[float] = 1.5,
    outage_prob: float = 0.02,
    outage_mean_len: float = 2.0,
) -> NetworkTrace:
    """In-the-wild university-WiFi-like path (France -> Germany, §5.2).

    Plenty of headroom on average, with contention-induced dips — the
    regime where BOLA and VOXEL tie on large buffers but small buffers
    expose the difference.
    """
    rng = _seed_from("wild", seed)
    raw = _regime_switching(
        rng, duration,
        levels_mbps=[6.0, 14.0, 22.0],
        stay_prob=0.85, sigma=0.22,
        outage_level=outage_level, outage_prob=outage_prob,
        outage_mean_len=outage_mean_len,
    )
    return NetworkTrace("wild", raw).offset_to_mean(12.0)


def constant_trace(mbps: float, duration: int = _DEFAULT_DURATION,
                   name: Optional[str] = None) -> NetworkTrace:
    """Constant-bandwidth synthetic trace (Fig. 11a: 10.5 Mbps)."""
    return NetworkTrace(
        name or f"constant-{mbps}",
        np.full(duration, float(mbps)),
    )


def step_trace(
    before_mbps: float = 10.75,
    after_mbps: float = 10.5,
    step_at_s: float = 70.0,
    duration: int = _DEFAULT_DURATION,
) -> NetworkTrace:
    """Step trace of Fig. 11c: starts high, drops at ``step_at_s``."""
    samples = np.full(duration, float(before_mbps))
    samples[int(step_at_s):] = float(after_mbps)
    return NetworkTrace(f"step-{before_mbps}-{after_mbps}", samples)


def _check_corpus_index(index: int) -> None:
    # A negative index would silently pick a trace from the corpus's end.
    if index < 0:
        raise ValueError(f"3g-corpus index must be >= 0, got {index}")


@TRACES.register(
    "3g-corpus",
    "one raw 3G commute trace of Fig. 10's corpus: low bandwidth, "
    "unscaled (index=<i> picks the trace)",
)
def corpus_3g_trace(
    seed: int = 0, index: int = 0, duration: int = _DEFAULT_DURATION
) -> NetworkTrace:
    """Trace ``index`` of the raw 3G commute corpus of Fig. 10.

    Means are drawn around 1-4 Mbps — low enough that streaming mostly
    lives at the bottom half of the ladder, which is exactly how the paper
    stress-tests BOLA vs BOLA-SSIM vs VOXEL with a 1-segment buffer.  The
    corpus ``seed`` draws every trace's mean in index order and each trace
    has its own generator, so a trace does not depend on the corpus size.
    """
    _check_corpus_index(index)
    rng = _seed_from("riiser-corpus", seed)
    for _ in range(index + 1):
        mean = float(rng.uniform(0.8, 4.0))
    sub = _seed_from("riiser", seed * 1000 + index)
    raw = _regime_switching(
        sub, duration,
        levels_mbps=[0.4 * mean, mean, 1.6 * mean],
        stay_prob=0.88, sigma=0.3,
        outage_level=0.08 * mean, outage_prob=0.03, outage_mean_len=4.0,
    )
    return NetworkTrace(f"3g-{index:02d}", np.maximum(raw, 0.05))


def riiser_3g_corpus(
    count: int = 86, seed: int = 0, duration: int = _DEFAULT_DURATION
) -> List[NetworkTrace]:
    """The 86 raw 3G commute traces of Fig. 10: ``3g-corpus`` 0 to 85."""
    return [corpus_3g_trace(seed, index, duration) for index in range(count)]


# Synthetic entries: ``constant`` takes its rate from the name
# (``constant:<mbps>``, bound by :func:`trace_generator`) and neither
# uses the seed.
TRACES.register(
    "constant", "constant-bandwidth synthetic trace (constant:<mbps>)"
)(lambda seed=0, mbps=10.5, **kw: constant_trace(mbps, **kw))
TRACES.register(
    "step", "step trace of Fig. 11c: 10.75 Mbps dropping to 10.5 at 70 s"
)(lambda seed=0, **kw: step_trace(**kw))

_PARAMETRIZED = ("constant", "step")

#: LRU memo of synthetic-trace generation.  Trace construction is a pure
#: function of ``(name, seed, kwargs)``, and the regime-switching
#: generators walk a Python loop over every sample — a fleet standing up
#: hundreds of sessions on the same weather otherwise regenerates the
#: identical series hundreds of times.  Traces are treated as immutable
#: by every consumer (``shifted``/``offset_to_mean`` return new
#: instances, ``FaultedTrace`` wraps), so sharing one instance is safe.
_TRACE_CACHE: "OrderedDict[tuple, NetworkTrace]" = OrderedDict()
_TRACE_CACHE_MAX = 128


def clear_trace_cache() -> None:
    """Drop every memoized trace (tests and memory-sensitive callers)."""
    _TRACE_CACHE.clear()


def trace_generator(name: str) -> Callable[..., NetworkTrace]:
    """The generator a trace name resolves to: ``generator(seed=, **kw)``.

    ``constant:<mbps>`` binds its rate; every other name is a registry
    key.  An unknown name raises ``KeyError`` with the catalog, and a
    constant rate that is negative or not finite ``ValueError``, so
    :meth:`~repro.core.build.StackBuilder.validate` checks names here.
    """
    key = name.lower()
    if key.startswith("constant"):
        mbps = float(key.split(":", 1)[1]) if ":" in key else 10.5
        if not 0.0 <= mbps < math.inf:
            raise ValueError(
                f"trace {name!r}: the rate must be a finite number of "
                f"Mbps >= 0"
            )
        return functools.partial(TRACES.get("constant"), mbps=mbps)
    if key in TRACES:
        return TRACES.get(key)
    raise KeyError(
        f"unknown trace {name!r}; known: "
        f"{', '.join(sorted(set(TRACES.names()) - set(_PARAMETRIZED)))}"
        f", constant:<mbps>, step"
    )


def check_trace(name: str, **kwargs) -> None:
    """Check a trace name and its kwargs without building the trace: an
    unknown name raises ``KeyError``, a kwarg its generator does not take
    or a negative ``3g-corpus`` index ``ValueError``."""
    generator = trace_generator(name)
    try:
        inspect.signature(generator).bind(seed=0, **kwargs)
    except TypeError as exc:
        raise ValueError(f"trace {name!r}: {exc}") from None
    if generator is corpus_3g_trace:
        _check_corpus_index(kwargs.get("index", 0))


def get_trace(
    name: str, seed: int = 0, use_cache: bool = True, **kwargs
) -> NetworkTrace:
    """Build a named trace ("tmobile", "verizon", "att", "3g", "fcc",
    "wild", "3g-corpus", "constant:<mbps>", "step").

    Results are memoized by ``(name, seed, kwargs)`` in a bounded LRU;
    pass ``use_cache=False`` to force a fresh build (the cache is also
    bypassed when a kwarg value is unhashable).
    """
    key = name.lower()
    cache_key = None
    if use_cache:
        try:
            cache_key = (key, seed, tuple(sorted(kwargs.items())))
            cached = _TRACE_CACHE.get(cache_key)
        except TypeError:
            cache_key = None  # unhashable kwarg: build uncached
        else:
            if cached is not None:
                _TRACE_CACHE.move_to_end(cache_key)
                return cached
    trace = trace_generator(name)(seed=seed, **kwargs)
    if cache_key is not None:
        _TRACE_CACHE[cache_key] = trace
        if len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
            _TRACE_CACHE.popitem(last=False)
    return trace


TRACE_NAMES = (
    sorted(set(TRACES.names()) - set(_PARAMETRIZED)) + ["constant:10.5", "step"]
)
