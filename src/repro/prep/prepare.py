"""The offline VOXEL preparation pipeline (§4.1).

``prepare(video)`` performs the paper's one-time, server-side analysis:
for every segment and quality level it

1. takes the pristine score of the next-lower level as the *lower bound*,
2. picks the frame ordering that needs the fewest bytes to beat that
   bound over every tail-drop count (:func:`_choose_curve`),
3. evaluates the drop curve under the chosen ordering,
4. distills it into manifest quality points (virtual quality levels), and
5. emits the byte ranges for reliable (I-frame + headers) and unreliable
   (payloads, in priority order) delivery.

The result — a :class:`PreparedVideo` — bundles the enriched manifest
with the underlying encode, which downstream code uses as the server-side
ground truth.  Preparation is deterministic and cached process-wide, like
the paper's "compute once, reuse indefinitely" manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.prep.analysis import (
    DropCurve,
    bytes_needed,
    drop_curve,
    drop_grid,
    reliable_bytes,
    tail_drop_masks,
    virtual_levels,
)
from repro.prep.manifest import (
    QualityPoint,
    Representation,
    SegmentEntry,
    VoxelManifest,
)
from repro.prep.ranking import Ordering, build_order
from repro.qoe.model import (
    DEFAULT_PARAMS,
    QoEParams,
    decode_segment,
    pristine_score,
    share_decode_contexts,
)
from repro.video.encoder import EncodedSegment, EncodedVideo
from repro.video.library import get_video

DEFAULT_ORDERINGS: Tuple[Ordering, ...] = (
    Ordering.ORIGINAL,
    Ordering.UNREFERENCED_TAIL,
    Ordering.REFERENCE_RANK,
    Ordering.QOE_RANK,
)


@dataclass
class PreparedSegment:
    """Per-(segment, quality) output of the offline analysis."""

    segment: EncodedSegment
    ordering: Ordering
    curve: DropCurve
    entry: SegmentEntry


@dataclass
class PreparedVideo:
    """An encoded video plus its VOXEL-enriched manifest."""

    video: EncodedVideo
    manifest: VoxelManifest
    params: QoEParams
    prepared: List[List[PreparedSegment]]  # [quality][index]

    @property
    def name(self) -> str:
        return self.video.name

    def prepared_segment(self, quality: int, index: int) -> PreparedSegment:
        return self.prepared[quality][index]


def _max_tolerable_drops(scores: Sequence[float], bound: float) -> int:
    """Largest tail-drop count whose score still meets ``bound``.

    ``scores[k]`` is the score with the ordering's last ``k`` frames
    dropped.  Scores are monotone non-increasing in the drop count
    (dropping more frames only ever adds error), so a binary search
    suffices; it probes the same ``k`` values wherever a curve is not.
    Returns -1 when even the pristine segment misses the bound.
    """
    if scores[0] < bound:
        return -1  # even pristine misses the bound
    lo, hi = 0, len(scores) - 1
    # Invariant: score(lo) >= bound; score(hi+1 side) unknown/short.
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if scores[mid] >= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _choose_curve(
    segment: EncodedSegment,
    bound: float,
    orderings: Sequence[Ordering],
    orders: Sequence[List[int]],
    scores: Sequence[List[float]],
) -> DropCurve:
    """Drop curve of the ordering needing the fewest bytes to beat ``bound``.

    ``scores[i][k]`` is the segment's score with the last ``k`` frames of
    ``orders[i]`` dropped; the first ordering wins a tie.
    """
    needed = bytes_needed(segment, orders)
    best = 0
    best_bytes: Optional[int] = None
    for i, order in enumerate(orders):
        drops = max(_max_tolerable_drops(scores[i], bound), 0)
        bytes_i = needed[i][len(order) - drops]
        if best_bytes is None or bytes_i < best_bytes:
            best, best_bytes = i, bytes_i
    order = orders[best]
    ks = drop_grid(len(order))
    return drop_curve(
        segment, orderings[best], order, ks, [scores[best][k] for k in ks],
        needed[best],
    )


def _segment_entry(
    segment: EncodedSegment,
    curve: DropCurve,
    lower_bound: float,
    offset: int,
    min_score_step: float,
) -> SegmentEntry:
    """The manifest entry of one (segment, quality) at byte ``offset``."""
    points = virtual_levels(curve, lower_bound, min_score_step=min_score_step)
    # Scores are rounded to the manifest's serialized precision so
    # a parse -> serialize round trip is lossless.
    quality_points = tuple(
        QualityPoint(
            score=round(p.score, 4),
            frames=p.frames_delivered,
            bytes=p.bytes_needed,
        )
        for p in points
    )

    # The I-frame travels whole and every other frame's header reliably,
    # the payloads unreliably in the curve's order.
    frames = segment.frames
    ends = offset + np.cumsum(frames.sizes)
    starts = ends - frames.sizes
    payload_starts = starts + frames.header_sizes()
    reliable_ends = payload_starts.copy()
    reliable_ends[0] = ends[0]
    order = np.asarray(curve.order, dtype=np.intp)
    reliable_ranges = tuple(zip(starts.tolist(), reliable_ends.tolist()))
    unreliable_ranges = tuple(
        zip(payload_starts[order].tolist(), ends[order].tolist())
    )

    return SegmentEntry(
        index=segment.index,
        quality=segment.quality,
        media_range=(offset, offset + segment.total_bytes),
        duration=segment.duration,
        reliable_size=reliable_bytes(segment),
        ordering=curve.ordering,
        frame_order=tuple(curve.order),
        quality_points=quality_points,
        reliable_ranges=reliable_ranges,
        unreliable_ranges=unreliable_ranges,
    )


def prepare(
    video_or_name,
    params: QoEParams = DEFAULT_PARAMS,
    orderings: Sequence[Ordering] = DEFAULT_ORDERINGS,
    min_score_step: float = 0.002,
) -> PreparedVideo:
    """Run the full offline preparation for a video.

    Work that does not depend on the rung is done once per segment: the
    rungs sharing a reference structure share one decode context, one
    build of each ordering and one drop-mask batch per ordering, whose
    damage the decode model computes once for all of them.

    Args:
        video_or_name: an :class:`EncodedVideo` or a catalog name.
        params: QoE model constants used for the analysis.
        orderings: candidate frame orderings (§4.1 lists three; VOXEL's
            QoE ranking is included by default).
        min_score_step: thinning granularity of the manifest's quality
            points.

    Returns:
        The :class:`PreparedVideo` with the enriched manifest.
    """
    video = (
        video_or_name
        if isinstance(video_or_name, EncodedVideo)
        else get_video(video_or_name)
    )

    entries: List[List[SegmentEntry]] = [[] for _ in video.ladder]
    prepared: List[List[PreparedSegment]] = [[] for _ in video.ladder]
    offsets = [0] * len(video.ladder)
    for index in range(video.num_segments):
        rungs = [video.segment(level.index, index) for level in video.ladder]
        for group in share_decode_contexts(rungs):
            frames = group[0].frames
            orders = [build_order(frames, ordering) for ordering in orderings]
            # Row k of an ordering's batch drops its last k frames.  The
            # rungs run innermost, so consecutive decodes share a mask.
            scores_by_rung: List[List[List[float]]] = [[] for _ in group]
            for order in orders:
                masks = tail_drop_masks(
                    order, len(frames), range(len(order) + 1)
                )
                for scores, segment in zip(scores_by_rung, group):
                    result = decode_segment(
                        segment, params=params, dropped=masks
                    )
                    scores.append(result.score.tolist())

            for segment, scores in zip(group, scores_by_rung):
                quality = segment.quality
                if quality == 0:
                    lower_bound = 0.0
                else:
                    lower = video.segment(quality - 1, index)
                    lower_bound = pristine_score(lower, params=params)
                curve = _choose_curve(
                    segment, lower_bound, orderings, orders, scores
                )
                entry = _segment_entry(
                    segment, curve, lower_bound, offsets[quality],
                    min_score_step,
                )
                entries[quality].append(entry)
                prepared[quality].append(
                    PreparedSegment(
                        segment=segment,
                        ordering=curve.ordering,
                        curve=curve,
                        entry=entry,
                    )
                )
                offsets[quality] += segment.total_bytes

    representations = [
        Representation(
            quality=level.index,
            avg_bitrate_bps=level.avg_bitrate_bps,
            resolution=level.resolution,
            segments=entries[level.index],
        )
        for level in video.ladder
    ]
    manifest = VoxelManifest(
        video=video.name,
        segment_duration=video.segment_duration,
        representations=representations,
    )
    return PreparedVideo(
        video=video, manifest=manifest, params=params, prepared=prepared
    )


_PREPARED_CACHE: Dict[Tuple[str, QoEParams], PreparedVideo] = {}


def get_prepared(
    name: str, params: QoEParams = DEFAULT_PARAMS
) -> PreparedVideo:
    """Prepared video from the catalog, cached process-wide."""
    key = (name.lower(), params)
    cached = _PREPARED_CACHE.get(key)
    if cached is None:
        cached = prepare(name, params=params)
        _PREPARED_CACHE[key] = cached
    return cached


def clear_prepared_cache() -> None:
    _PREPARED_CACHE.clear()
