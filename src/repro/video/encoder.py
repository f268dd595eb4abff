"""Synthetic capped-VBR transcoder.

``encode_video`` plays the role of the paper's FFmpeg 2-pass transcoding
step: it takes a :class:`~repro.video.content.ContentProfile` and produces
an :class:`EncodedVideo` — every segment coded at all 13 ladder levels,
with realized frame structures (types, sizes, reference graphs).

The encoding is "2x-capped" VBR as in §5/§A: a segment's size scales with
its content activity but never exceeds twice the level's average size.
The same content drives all quality levels, so the per-segment size
*pattern* is consistent across the ladder (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.video.content import ContentModel, ContentProfile, SegmentContent, get_profile
from repro.video.frames import SegmentFrames
from repro.video.gop import rung_frames, segment_structure
from repro.video.ladder import (
    FRAMES_PER_SECOND,
    QualityLevel,
    SEGMENT_DURATION,
    VBR_PEAK_CAP,
    default_ladder,
)


@dataclass(slots=True)
class EncodedSegment:
    """One segment at one quality level."""

    video: str
    index: int
    quality: int
    frames: SegmentFrames
    content: SegmentContent

    @property
    def total_bytes(self) -> int:
        return self.frames.total_bytes

    @property
    def duration(self) -> float:
        return self.frames.duration

    @property
    def bitrate_bps(self) -> float:
        """Realized (VBR) bitrate of this individual segment."""
        return self.total_bytes * 8.0 / self.duration

    @property
    def bitrate_mbps(self) -> float:
        return self.bitrate_bps / 1e6


@dataclass
class EncodedVideo:
    """A video coded at every ladder level.

    ``segments[q][i]`` is segment ``i`` at quality ``Qq``.
    """

    profile: ContentProfile
    ladder: List[QualityLevel]
    segments: List[List[EncodedSegment]]
    segment_duration: float = SEGMENT_DURATION
    fps: float = FRAMES_PER_SECOND

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def num_segments(self) -> int:
        return len(self.segments[0])

    @property
    def num_levels(self) -> int:
        return len(self.ladder)

    @property
    def duration(self) -> float:
        return self.num_segments * self.segment_duration

    def segment(self, quality: int, index: int) -> EncodedSegment:
        return self.segments[quality][index]

    def segment_sizes(self, quality: int) -> List[int]:
        """Exact coded sizes per segment at a level — what the paper feeds
        BOLA/MPC instead of video-wide average bitrates."""
        return [seg.total_bytes for seg in self.segments[quality]]

    def total_size_bytes(self, quality: int) -> int:
        return sum(self.segment_sizes(quality))

    def segment_bitrates_mbps(self, quality: int) -> List[float]:
        return [seg.bitrate_mbps for seg in self.segments[quality]]

    def size_std_mbps(self, quality: int) -> float:
        """Std-dev of per-segment bitrate, comparable to Tab. 1/Tab. 3."""
        return float(np.std(self.segment_bitrates_mbps(quality)))


def effective_ladder(profile: ContentProfile,
                     ladder: Optional[Sequence[QualityLevel]] = None
                     ) -> List[QualityLevel]:
    """The ladder actually used for a video.

    ED is only available at 1080p, so its Q11/Q12 are coded at 1080p
    resolution (same bitrates), exactly as the paper notes in §A.
    """
    base = list(ladder) if ladder is not None else default_ladder()
    out = []
    for level in base:
        if level.height > profile.max_resolution_height:
            width = profile.max_resolution_height * 16 // 9
            level = QualityLevel(
                level.index,
                (width, profile.max_resolution_height),
                level.avg_bitrate_mbps,
            )
        out.append(level)
    return out


def _calibrated_multipliers(
    profile: ContentProfile, contents: Sequence[SegmentContent]
) -> np.ndarray:
    """Per-segment VBR size multipliers, calibrated to the paper's stats.

    Real 2-pass capped-VBR encoding keeps the *average* bitrate at the
    ladder value while letting hard segments use up to ``VBR_PEAK_CAP``
    times the average.  We reproduce that: raw content-driven multipliers
    are mean-normalized, then their spread is scaled (by bisection) so the
    realized per-segment bitrate standard deviation at the top level
    approaches the video's Tab. 1 / Tab. 3 target.
    """
    raw = np.array([content.size_multiplier for content in contents], dtype=float)
    raw = raw / raw.mean()
    deviation = raw - 1.0
    target_rel_std = profile.size_std_mbps / 10.0  # top level avg is 10 Mbps

    def realized_std(scale: float) -> float:
        clipped = np.clip(1.0 + scale * deviation, 0.05, VBR_PEAK_CAP)
        clipped = clipped / clipped.mean()  # keep the average honest
        return float(np.std(clipped))

    lo, hi = 0.0, 12.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if realized_std(mid) < target_rel_std:
            lo = mid
        else:
            hi = mid
    scale = 0.5 * (lo + hi)
    result = np.clip(1.0 + scale * deviation, 0.05, VBR_PEAK_CAP)
    return result / result.mean()


def encode_video(
    profile_or_name,
    ladder: Optional[Sequence[QualityLevel]] = None,
    segment_duration: float = SEGMENT_DURATION,
    fps: float = FRAMES_PER_SECOND,
) -> EncodedVideo:
    """Transcode a content profile into all ladder levels.

    Args:
        profile_or_name: a :class:`ContentProfile` or a catalog name
            (e.g. ``"bbb"``).
        ladder: quality levels; defaults to the paper's Tab. 2 ladder.
        segment_duration: seconds per segment (paper uses 4 s).
        fps: frames per second (paper uses 24).

    Returns:
        The fully realized :class:`EncodedVideo`.
    """
    profile = (
        profile_or_name
        if isinstance(profile_or_name, ContentProfile)
        else get_profile(profile_or_name)
    )
    levels = effective_ladder(profile, ladder)
    frames_per_segment = int(round(segment_duration * fps))
    model = ContentModel(profile, frames_per_segment=frames_per_segment)
    contents = model.segments()

    multipliers = _calibrated_multipliers(profile, contents)

    rng = np.random.default_rng(profile.seed() ^ 0x5EC0DE)
    per_level: List[List[EncodedSegment]] = [[] for _ in levels]
    for content, multiplier in zip(contents, multipliers):
        # One jitter seed per segment so all levels share frame-size
        # *structure* (scaled), like a real multi-rate transcode.
        seg_seed = int(rng.integers(0, 2**63 - 1))
        # Types, references and motion follow from the content alone:
        # built once, shared by every level's frames.
        structure = segment_structure(content, frames_per_segment)
        for level in levels:
            avg_bytes = level.avg_segment_bytes(segment_duration)
            total = max(int(avg_bytes * multiplier), 256)
            seg_rng = np.random.default_rng(seg_seed ^ (level.index + 1))
            frames = rung_frames(
                structure, content, total, segment_duration, fps, seg_rng
            )
            per_level[level.index].append(
                EncodedSegment(
                    video=profile.name,
                    index=content.index,
                    quality=level.index,
                    frames=frames,
                    content=content,
                )
            )
    return EncodedVideo(
        profile=profile,
        ladder=levels,
        segments=per_level,
        segment_duration=segment_duration,
        fps=fps,
    )
