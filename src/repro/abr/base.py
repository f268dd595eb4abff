"""ABR algorithm interfaces shared by all implementations.

An ABR algorithm sees a :class:`DecisionContext` before every segment
download and returns a :class:`Decision` — which quality to fetch, an
optional byte target below the full segment size (a *virtual quality
level*, VOXEL-only), and whether the payload may ride an unreliable
stream.  During the download the session consults
:meth:`ABRAlgorithm.control` after every congestion round so the
algorithm can truncate (keep the partial segment) or abandon-and-restart
at another quality.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.prep.manifest import SegmentEntry, VoxelManifest


class ControlVerb(enum.Enum):
    """Mid-download control actions."""

    CONTINUE = "continue"
    TRUNCATE = "truncate"  # stop here / at a byte limit, keep the partial
    RESTART = "restart"  # discard, re-download at `restart_quality`


@dataclass(slots=True)
class ControlAction:
    verb: ControlVerb = ControlVerb.CONTINUE
    truncate_to_bytes: Optional[int] = None  # wire-request byte limit
    restart_quality: Optional[int] = None

    @classmethod
    def cont(cls) -> "ControlAction":
        # One shared instance: continue-actions are produced once per
        # transport round and never mutated, so allocation is waste.
        return _CONTINUE if cls is ControlAction else cls()

    @classmethod
    def truncate(cls, at_bytes: Optional[int] = None) -> "ControlAction":
        return cls(verb=ControlVerb.TRUNCATE, truncate_to_bytes=at_bytes)

    @classmethod
    def restart(cls, quality: int) -> "ControlAction":
        return cls(verb=ControlVerb.RESTART, restart_quality=quality)


_CONTINUE = ControlAction()


@dataclass(slots=True)
class Decision:
    """What to download next.

    Attributes:
        quality: ladder level to fetch.
        target_bytes: total byte budget (``None`` = the whole segment);
            only meaningful on a VOXEL-capable path.
        unreliable: allow the payload on an unreliable stream.
        wait_s: postpone the download (BOLA may decide the buffer is
            already high enough); the session idles and asks again.
        expected_score: the QoE score the algorithm believes this choice
            yields (for logging).
        skip_frames: explicit frames to omit from the request (BETA's
            b-dropped variant on a reliable transport).  When set, the
            session requests the segment minus these frames' payloads.
    """

    quality: int
    target_bytes: Optional[int] = None
    unreliable: bool = True
    wait_s: float = 0.0
    expected_score: float = 1.0
    skip_frames: Optional[tuple] = None


@dataclass(slots=True)
class DownloadProgress:
    """Live state handed to :meth:`ABRAlgorithm.control`.

    The session updates one instance per request each round: read it
    during the call, do not keep it.
    """

    segment_index: int
    quality: int
    elapsed: float  # since the download began
    bytes_sent: int  # wire bytes of this request sent so far
    bytes_total: int  # wire bytes this request wants
    buffer_level_s: float  # playback buffer remaining right now
    throughput_bps: float  # safe running estimate


@dataclass(slots=True)
class DecisionContext:
    """Everything an ABR algorithm may consult before a download."""

    segment_index: int
    buffer_level_s: float
    buffer_capacity_s: float
    throughput_bps: float  # safe estimate (0 when unknown yet)
    last_quality: Optional[int]
    manifest: VoxelManifest
    entries: Sequence[SegmentEntry]  # next segment's entry per quality
    segment_duration: float
    voxel_capable: bool  # partial/unreliable delivery usable end-to-end
    throughput_samples: Sequence[float] = ()  # recent per-download bps

    def entry(self, quality: int) -> SegmentEntry:
        return self.entries[quality]

    @property
    def num_levels(self) -> int:
        return len(self.entries)


class ABRAlgorithm(abc.ABC):
    """Base class for ABR algorithms."""

    name: str = "abr"

    #: Earliest download elapsed time (seconds) at which :meth:`control`
    #: can return anything but CONTINUE.  The session skips building the
    #: progress snapshot below it, so algorithms with a warm-up gate
    #: (e.g. ABR* waits 0.5 s of signal) advertise it here.  Must be a
    #: conservative lower bound of the method's own early-exit check.
    control_min_elapsed_s: float = 0.0

    def setup(self, manifest: VoxelManifest, buffer_capacity_s: float) -> None:
        """One-time initialization before streaming begins."""

    @abc.abstractmethod
    def choose(self, ctx: DecisionContext) -> Decision:
        """Pick the next download."""

    def control(self, progress: DownloadProgress) -> ControlAction:
        """Mid-download control; default: let the download finish."""
        return ControlAction.cont()

    def on_complete(self, segment_index: int, quality: int,
                    delivered_bytes: int, elapsed: float) -> None:
        """Hook after a segment download finishes (for internal state)."""

    def _count_control(self, verb: str) -> None:
        """Count a non-CONTINUE control action in the metrics registry."""
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "abr.control_actions", abr=self.name, verb=verb
        ).inc()


def clamp_quality(quality: int, num_levels: int) -> int:
    return max(0, min(quality, num_levels - 1))


def safe_throughput(samples: Sequence[float], default: float = 1e6) -> float:
    """Harmonic mean of the recent throughput samples (robust to spikes)."""
    recent = [s for s in samples[-5:] if s > 0]
    if not recent:
        return default
    return len(recent) / sum(1.0 / s for s in recent)
