"""BETA — Bandwidth-Efficient Temporal Adaptation (James et al.).

Reimplemented from the descriptions in the VOXEL paper (the original is
not publicly available, so — like the VOXEL authors — we rebuild it from
the published details):

* BETA runs over a **reliable** transport (TCP in the original; reliable
  QUIC streams here) — no imperfect transmission.
* Per quality level it knows exactly **one** virtual quality threshold:
  the segment with all *unreferenced* B-frames removed (frames nothing
  else references — "b-frames").  The video files are rewritten so those
  frames sit at the segment tail; here that is equivalent to requesting
  the unreferenced-tail byte count of the segment.
* When the estimated bandwidth does not cover the full segment, BETA
  requests the b-dropped variant instead.
* If even that falls behind mid-download, BETA discards the partial data
  and refetches the same segment at the lowest quality ("in the worst
  case, simply discard the data and fetch the same segment at the lowest
  quality", §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.abr.base import (
    ABRAlgorithm,
    ControlAction,
    Decision,
    DecisionContext,
    DownloadProgress,
)
from repro.prep.manifest import VoxelManifest
from repro.prep.prepare import PreparedVideo
from repro.qoe.model import decode_segment


@dataclass(frozen=True)
class BetaLevel:
    """BETA's per-(segment, quality) knowledge."""

    full_bytes: int
    bdrop_bytes: int  # size with all unreferenced B-frames removed
    bdrop_score: float  # QoE of the b-dropped variant
    bdrop_frames: Tuple[int, ...]  # the frames BETA's variant omits


class BetaABR(ABRAlgorithm):
    """BETA reimplementation over reliable streams."""

    name = "beta"

    def __init__(self, prepared: PreparedVideo, safety: float = 1.0):
        self.prepared = prepared
        self.safety = safety
        # A level depends only on the prepared video (its segments and
        # QoE params), so every BETA streaming it shares one (quality,
        # index) table, cached on the video itself: it lives exactly as
        # long as the video, where a table keyed by ``id()`` would serve
        # a freed video's levels to the next object at its address.
        try:
            self._table = prepared._beta_levels
        except AttributeError:
            self._table = prepared._beta_levels = {}
        self._restarted: Optional[int] = None

    def setup(self, manifest: VoxelManifest, buffer_capacity_s: float) -> None:
        self._buffer_capacity_s = buffer_capacity_s

    # ------------------------------------------------------------------
    def _level(self, quality: int, index: int) -> BetaLevel:
        """BETA's b-drop variant (built lazily, once per prepared video)."""
        key = (quality, index)
        cached = self._table.get(key)
        if cached is not None:
            return cached
        segment = self.prepared.video.segment(quality, index)
        frames = segment.frames
        unreferenced = tuple(frames.unreferenced_indices())
        skipped = frames.payload_sizes()[list(unreferenced)]
        score = decode_segment(
            segment, params=self.prepared.params, dropped=list(unreferenced)
        ).score
        level = BetaLevel(
            full_bytes=segment.total_bytes,
            bdrop_bytes=segment.total_bytes - int(skipped.sum()),
            bdrop_score=score,
            bdrop_frames=unreferenced,
        )
        self._table[key] = level
        return level

    # ------------------------------------------------------------------
    def choose(self, ctx: DecisionContext) -> Decision:
        self._restarted = None
        budget_bits = ctx.throughput_bps * self.safety * ctx.segment_duration
        if ctx.throughput_bps <= 0:
            return Decision(quality=0, unreliable=False,
                            expected_score=ctx.entry(0).pristine_score)

        # Highest quality whose FULL segment fits the budget.
        full_choice = 0
        for quality in range(ctx.num_levels - 1, -1, -1):
            if ctx.entry(quality).total_bytes * 8 <= budget_bits:
                full_choice = quality
                break

        # Temporal adaptation: can the b-dropped variant of a higher
        # level fit where the full segment does not?
        chosen_quality = full_choice
        target: Optional[int] = None
        expected = ctx.entry(full_choice).pristine_score
        if full_choice < ctx.num_levels - 1:
            candidate = full_choice + 1
            level = self._level(candidate, ctx.segment_index)
            if level.bdrop_bytes * 8 <= budget_bits:
                chosen_quality = candidate
                target = level.bdrop_bytes
                expected = level.bdrop_score

        skip = (
            self._level(chosen_quality, ctx.segment_index).bdrop_frames
            if target is not None
            else None
        )
        return Decision(
            quality=chosen_quality,
            target_bytes=target,
            unreliable=False,  # BETA never uses unreliable delivery
            expected_score=expected,
            skip_frames=skip,
        )

    # ------------------------------------------------------------------
    def control(self, progress: DownloadProgress) -> ControlAction:
        if self._restarted == progress.segment_index:
            return ControlAction.cont()
        if progress.quality == 0 or progress.throughput_bps <= 0:
            return ControlAction.cont()
        remaining_bits = (progress.bytes_total - progress.bytes_sent) * 8
        remaining_time = remaining_bits / progress.throughput_bps
        if remaining_time <= progress.buffer_level_s:
            return ControlAction.cont()
        # Worst case: discard and refetch the lowest quality.
        self._restarted = progress.segment_index
        self._count_control("restart")
        return ControlAction.restart(0)
