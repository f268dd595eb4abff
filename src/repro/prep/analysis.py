"""Offline frame-drop tolerance analysis (§3 and §4.1).

For a segment and a frame ordering, the *drop curve* maps "drop the last
``k`` frames of the ordering" to the resulting segment QoE score and the
bytes the client must download (I-frame + all frame headers + payloads of
the kept frames).  From the curves we derive:

* **drop tolerance** — the largest fraction of frames that may be dropped
  while keeping the score above a target (Fig. 1a-c, Fig. 19),
* **droppable positions** — which display positions may be dropped at a
  target score (Fig. 2a),
* **byte costs** per ordering (:func:`bytes_needed`), from which
  :func:`~repro.prep.prepare.prepare` picks the ordering needing the
  fewest bytes to beat the score of the next-lower quality level (§4.1),
* **virtual quality levels** — (score, frames, bytes) tuples written into
  the manifest's ``ssims`` attribute (Fig. 2c/d, Listing 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.prep.ranking import Ordering, build_order
from repro.qoe.model import DEFAULT_PARAMS, QoEParams, decode_segment
from repro.video.encoder import EncodedSegment


@dataclass(frozen=True, slots=True)
class DropPoint:
    """One point of a drop curve.

    Attributes:
        dropped: number of tail frames of the ordering not downloaded.
        frames_delivered: frames whose payload is fully delivered
            (including the I-frame).
        bytes_needed: bytes the client downloads to realize this point
            (reliable bytes — I-frame plus all headers — plus the payloads
            of delivered frames).
        score: resulting segment QoE score (model SSIM).
    """

    dropped: int
    frames_delivered: int
    bytes_needed: int
    score: float


@dataclass
class DropCurve:
    """Score and byte cost as a function of tail drops under one ordering.

    Stored by column, one entry per evaluated drop count (ascending):
    ``drop_counts``, ``byte_costs`` and ``scores``.  :attr:`points` builds
    the :class:`DropPoint` objects on access.  A prepared video keeps one
    curve per (segment, quality); as tuples of plain numbers its points
    leave the garbage collector's care at the first collection that sees
    them, where one object each would lengthen every later full
    collection.
    """

    segment: EncodedSegment
    ordering: Ordering
    order: List[int]
    drop_counts: Tuple[int, ...]
    byte_costs: Tuple[int, ...]
    scores: Tuple[float, ...]

    def point(self, i: int) -> DropPoint:
        """The curve's ``i``-th point."""
        k = self.drop_counts[i]
        return DropPoint(
            dropped=k,
            frames_delivered=self.num_frames - k,
            bytes_needed=self.byte_costs[i],
            score=self.scores[i],
        )

    @property
    def points(self) -> List[DropPoint]:
        return [self.point(i) for i in range(len(self.scores))]

    @property
    def num_frames(self) -> int:
        return len(self.segment.frames)

    @property
    def pristine_score(self) -> float:
        return self.scores[0]

    def tolerance(self, target_score: float) -> float:
        """Largest drop *fraction* keeping the score >= target.

        The fraction is over all frames of the segment, matching the
        x-axis of Fig. 1.  Returns 0.0 if even one drop violates the
        target (or the segment can't hit the target at all).
        """
        return self.max_drops(target_score) / self.num_frames

    def max_drops(self, target_score: float) -> int:
        """Largest number of dropped frames keeping score >= target."""
        best = 0
        for dropped, score in zip(self.drop_counts, self.scores):
            if score >= target_score:
                best = max(best, dropped)
        return best

    def bytes_for_score(self, target_score: float) -> Optional[int]:
        """Smallest download achieving at least ``target_score``.

        Returns ``None`` when the target is unreachable even with the full
        segment (encoding distortion alone is too high).
        """
        candidates = [
            cost
            for cost, score in zip(self.byte_costs, self.scores)
            if score >= target_score
        ]
        return min(candidates) if candidates else None

    def point_for_bytes(self, byte_budget: int) -> DropPoint:
        """The best point downloadable within ``byte_budget`` bytes.

        Points are monotone in bytes (more drops = fewer bytes), so this
        returns the point with the fewest drops that still fits.  If even
        the maximum-drop point exceeds the budget, that point is returned
        (the client must at least fetch the reliable part).
        """
        fitting = [
            i for i, cost in enumerate(self.byte_costs) if cost <= byte_budget
        ]
        if not fitting:
            return self.point(len(self.scores) - 1)
        return self.point(min(fitting, key=self.drop_counts.__getitem__))

    def score_for_bytes(self, byte_budget: int) -> float:
        return self.point_for_bytes(byte_budget).score


def reliable_bytes(segment: EncodedSegment) -> int:
    """Bytes VOXEL always delivers reliably: the I-frame + all headers."""
    frames = segment.frames
    return int(frames.sizes[0]) + int(frames.header_sizes()[1:].sum())


def drop_grid(n_droppable: int, fine_until: int = 32, stride: int = 3) -> List[int]:
    """k values at which to evaluate a drop curve.

    Dense at the head (where ABR decisions live), strided toward full
    drop; always includes 0 and the maximum.
    """
    ks = list(range(0, min(fine_until, n_droppable) + 1))
    ks.extend(range(fine_until + stride, n_droppable, stride))
    if n_droppable not in ks:
        ks.append(n_droppable)
    return sorted(set(k for k in ks if 0 <= k <= n_droppable))


def tail_drop_masks(
    order: Sequence[int], n_frames: int, ks: Sequence[int]
) -> np.ndarray:
    """One drop-mask row per ``k`` in ``ks``: the last ``k`` of ``order``.

    Returns a C-contiguous ``len(ks) x n_frames`` boolean array for a
    batch :func:`~repro.qoe.model.decode_segment`.
    """
    n = len(order)
    # order[p] is among the last k frames once k >= n - p.
    first_dropped_at = np.full(n_frames, n + 1)
    first_dropped_at[list(order)] = n - np.arange(n)
    return np.asarray(ks)[:, None] >= first_dropped_at


def bytes_needed(
    segment: EncodedSegment, orders: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Download size when only the first ``m`` frames of an order arrive.

    For each order, entry ``m`` (m = 0..len(order)) is the reliable bytes
    plus the payloads of the order's first ``m`` frames.
    """
    payloads = segment.frames.payload_sizes()
    base_reliable = reliable_bytes(segment)
    return [
        [base_reliable]
        + (base_reliable + np.cumsum(payloads[list(order)])).tolist()
        for order in orders
    ]


def drop_curve(
    segment: EncodedSegment,
    ordering: Ordering,
    order: List[int],
    ks: Sequence[int],
    scores: Sequence[float],
    needed: Sequence[int],
) -> DropCurve:
    """The curve of ``order``: ``scores[i]`` is the score at ``ks[i]``.

    ``needed`` is the order's entry of :func:`bytes_needed`.
    """
    n = len(order)
    return DropCurve(
        segment=segment,
        ordering=ordering,
        order=order,
        drop_counts=tuple(ks),
        byte_costs=tuple([needed[n - k] for k in ks]),
        scores=tuple(scores),
    )


def compute_drop_curve(
    segment: EncodedSegment,
    ordering: Ordering,
    params: QoEParams = DEFAULT_PARAMS,
    grid: Optional[Sequence[int]] = None,
) -> DropCurve:
    """Evaluate the drop curve of a segment under an ordering.

    Every ``k`` of the grid is one row of a single batch decode.
    """
    order = build_order(segment.frames, ordering)
    ks = list(grid) if grid is not None else drop_grid(len(order))
    masks = tail_drop_masks(order, len(segment.frames), ks)
    scores = decode_segment(segment, params=params, dropped=masks).score
    return drop_curve(
        segment, ordering, order, ks, scores.tolist(),
        bytes_needed(segment, [order])[0],
    )


def droppable_positions(
    segment: EncodedSegment,
    target_score: float,
    params: QoEParams = DEFAULT_PARAMS,
    max_score_delta: float = 0.01,
) -> List[int]:
    """Display positions whose individual drop keeps the score high.

    Fig. 2a asks: can the frame at position ``p`` be dropped from the
    segment without reducing the score by more than 0.01?  Returns the
    positions for which the answer is yes.
    """
    # Row 0 is the clean delivery, row p drops frame p alone.
    masks = np.eye(len(segment.frames), dtype=bool)
    masks[0, 0] = False
    scores = decode_segment(segment, params=params, dropped=masks).score
    base, *singles = scores.tolist()
    return [
        position
        for position, score in enumerate(singles, start=1)
        if score >= base - max_score_delta and score >= target_score
    ]


def virtual_levels(
    curve: DropCurve,
    lower_bound: float,
    min_score_step: float = 0.002,
) -> List[DropPoint]:
    """Distill a drop curve into manifest-ready virtual quality levels.

    Returns a monotone list of points (best score first), thinned so that
    consecutive entries differ by at least ``min_score_step`` in score,
    and truncated at the lower-bound score — below it the client should
    switch to the next real quality level instead (§3, insight 3).
    """
    scores, costs = curve.scores, curve.byte_costs
    usable = [i for i, score in enumerate(scores) if score >= lower_bound]
    if not usable:
        usable = [0]
    usable.sort(key=lambda i: (-scores[i], costs[i]))
    thinned: List[int] = []
    for i in usable:
        if not thinned or scores[thinned[-1]] - scores[i] >= min_score_step:
            thinned.append(i)
    return [curve.point(i) for i in thinned]
