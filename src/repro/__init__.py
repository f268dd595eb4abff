"""repro — a from-scratch reproduction of VOXEL (CoNEXT 2021).

VOXEL is a cross-layer optimization system for video streaming over
imperfect (lossy) transmission.  It combines three pieces:

1. An **offline, server-side frame-importance analysis** that rank-orders
   the frames of every video segment by the QoE impact of their loss and
   enriches the DASH manifest with the resulting ordering, the byte ranges
   that must be delivered reliably, and an ``ssims`` map from
   bytes-downloaded to expected QoE (:mod:`repro.prep`).
2. **QUIC\\***, a partially reliable QUIC variant whose unreliable streams
   remain congestion- and flow-controlled (:mod:`repro.transport`), running
   over an emulated bottleneck network (:mod:`repro.network`).
3. **ABR\\***, a BOLA-derived adaptive-bitrate algorithm that optimizes a
   QoE metric directly, exploits *virtual quality levels* created by
   dropping low-importance frames, and keeps partial segments on
   abandonment (:mod:`repro.abr`).

The package also contains the substrates the paper depends on: a synthetic
H.264-like codec model and video library (:mod:`repro.video`), analytic
SSIM/VMAF/PSNR QoE models with reference-graph error propagation
(:mod:`repro.qoe`), a playback client (:mod:`repro.player`), and the full
experiment harness reproducing every table and figure of the paper
(:mod:`repro.experiments`).

Quickstart::

    from repro import core

    prepared = core.prepare_video("bbb")
    result = core.stream(prepared, abr="abr_star", trace="verizon",
                         buffer_segments=2, seed=7)
    print(result.metrics.buf_ratio, result.metrics.mean_ssim)
"""

__version__ = "1.0.0"

_API_NAMES = (
    "PreparedVideo",
    "StreamResult",
    "available_abrs",
    "available_backends",
    "available_traces",
    "available_videos",
    "prepare_video",
    "stream",
    "stream_spec",
)

#: Scenario-spine names living in repro.core (not repro.core.api).
_CORE_NAMES = ("ScenarioSpec", "StackBuilder")


def __getattr__(name):
    """Lazily expose the high-level API (PEP 562).

    Subpackages such as :mod:`repro.video` are importable without pulling
    in the whole stack; the convenience names resolve on first access.
    """
    if name in _API_NAMES:
        from repro.core import api

        return getattr(api, name)
    if name in _CORE_NAMES:
        import repro.core as core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = list(_API_NAMES) + list(_CORE_NAMES) + ["__version__"]
