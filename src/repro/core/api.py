"""High-level convenience API — the paper's system in three calls.

::

    from repro import prepare_video, stream

    prepared = prepare_video("bbb")           # offline, server side
    result = stream(prepared,                 # online, client side
                    abr="abr_star", trace="verizon", buffer_segments=2)
    print(result.metrics.buf_ratio, result.metrics.mean_ssim)

``prepare_video`` runs VOXEL's one-time analysis (frame ranking, drop
curves, manifest enrichment); ``stream`` plays the prepared video through
an ABR algorithm over an emulated network and returns the full metrics.

:func:`stream_spec` is the one call that streams a
:class:`~repro.core.spec.ScenarioSpec`; ``stream()``'s keyword arguments
are spec fields.  The :class:`~repro.core.build.StackBuilder` wires the
session, so the convenience API, the experiment runner, and ``repro
sweep`` all build identical stacks from identical descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.abr import ABR_NAMES
from repro.core.build import StackBuilder
from repro.core.spec import ScenarioSpec
from repro.network.traces import TRACE_NAMES, NetworkTrace
from repro.player.metrics import SessionMetrics
from repro.prep.prepare import PreparedVideo, get_prepared, prepare
from repro.transport.backends import BACKENDS
from repro.video.content import ALL_VIDEOS


@dataclass
class StreamResult:
    """Everything produced by one :func:`stream` call."""

    metrics: SessionMetrics
    prepared: PreparedVideo

    @property
    def buf_ratio(self) -> float:
        return self.metrics.buf_ratio

    @property
    def mean_ssim(self) -> float:
        return self.metrics.mean_ssim

    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()


def available_videos() -> List[str]:
    """Catalog names usable with :func:`prepare_video`."""
    return list(ALL_VIDEOS)


def available_abrs() -> List[str]:
    """ABR algorithm names usable with :func:`stream`."""
    return list(ABR_NAMES)


def available_traces() -> List[str]:
    """Network trace names usable with :func:`stream`."""
    return list(TRACE_NAMES)


def available_backends() -> List[str]:
    """Transport backend names usable with ``ScenarioSpec(backend=...)``."""
    return BACKENDS.names()


def prepare_video(name: str, cached: bool = True) -> PreparedVideo:
    """Run the offline VOXEL preparation for a catalog video.

    Args:
        name: catalog video name (see :func:`available_videos`).
        cached: reuse the process-wide cache (preparation is a one-time,
            deterministic computation — exactly the paper's story).
    """
    if cached:
        return get_prepared(name)
    return prepare(name)


def stream(
    prepared: PreparedVideo,
    network_trace: Optional[NetworkTrace] = None,
    tracer=None,
    **spec_fields,
) -> StreamResult:
    """Stream a prepared video once and return the session metrics.

    Every other keyword is a :class:`~repro.core.spec.ScenarioSpec`
    field, at the spec's default when omitted (``abr``, ``trace``,
    ``buffer_segments``, ``seed``, ``trace_shift_s``, ``abr_kwargs``,
    ``faults``, ...); an unknown name is a ``TypeError``.  Reliability
    is the spec's mode string: ``reliability="quic"`` streams plain
    QUIC, ``"quic*-rel"`` the "VOXEL rel" ablation (see
    :data:`~repro.core.spec.RELIABILITY_MODES`).  The video is
    ``prepared``'s.

    Args:
        prepared: output of :func:`prepare_video`.
        network_trace: an explicit trace object instead of the spec's
            named trace; shifted by ``trace_shift_s``.  The spec's
            ``seed`` only applies to named traces, so combining a
            nonzero seed with it raises ``ValueError`` rather than
            silently ignoring the seed.
        tracer: an :class:`~repro.obs.Tracer` collecting structured
            session events (``None`` = tracing off, zero overhead).
    """
    spec = ScenarioSpec(video=prepared.video.name, **spec_fields)
    if network_trace is not None and spec.seed != 0:
        raise ValueError(
            "conflicting arguments: seed only applies to named traces, "
            "but an explicit network_trace was passed alongside "
            f"seed={spec.seed}; seed the trace object itself (or drop "
            "one of the two)"
        )
    return stream_spec(
        spec,
        prepared=prepared,
        network_trace=(
            network_trace.shifted(spec.trace_shift_s)
            if network_trace is not None else None
        ),
        tracer=tracer,
    )


def stream_spec(
    spec: ScenarioSpec,
    prepared: Optional[PreparedVideo] = None,
    network_trace: Optional[NetworkTrace] = None,
    tracer=None,
) -> StreamResult:
    """Stream one :class:`ScenarioSpec` and return the session metrics.

    Every knob comes from the spec, the stack is assembled by the
    :class:`~repro.core.build.StackBuilder`, and the trace header is
    stamped with the spec's content hash.  An explicit
    ``network_trace`` (already shifted) replaces the spec's named trace.
    """
    builder = StackBuilder(spec, prepared=prepared)
    prepared = builder.prepared_video()
    session = builder.build(network_trace=network_trace, tracer=tracer)
    return StreamResult(metrics=session.run(), prepared=prepared)
