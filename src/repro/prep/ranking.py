"""Frame prioritization orderings (§4.1).

VOXEL investigates three download orders for the non-I frames of a
segment.  An *ordering* is a permutation of the frame indices ``1..N-1``
(the I-frame always travels first, reliably, and is never part of any
ordering).  Clients download frames in this order; if the download of a
segment is cut short, the frames at the **tail** of the ordering are the
ones dropped.

1. **Original order** — decode/display order as emitted by the encoder.
   Terminating early drops the *end of the segment in time*, so drops are
   consecutive and freeze errors accumulate.
2. **Unreferenced-grouped order** — frames with no inbound references are
   moved to the tail (this closely resembles BETA, which only ever drops
   unreferenced B-frames).
3. **Inbound-reference rank order** — frames are ranked by their direct
   plus transitive inbound-reference weight; the least-referenced frames
   form the tail.  Ties (e.g. all unreferenced b-frames have weight 0)
   are broken by the estimated visual cost of dropping the frame, most
   costly first, so the cheapest drops sit at the very end.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List

from repro.video.frames import SegmentFrames


class Ordering(enum.Enum):
    """Frame prioritization orders.

    The first three are the candidates of §4.1.  ``QOE_RANK`` is the
    QoE-metric-based importance ranking the paper's introduction claims as
    VOXEL's novel capability: it weighs each frame's structural influence
    by the visual cost of concealing it, which is what lets VOXEL drop
    *referenced* frames in calm scenes ahead of unreferenced frames in
    action scenes (§3 reports 12.6-30 % of dropped frames being
    referenced ones).
    """

    ORIGINAL = "original"
    UNREFERENCED_TAIL = "unreferenced_tail"
    REFERENCE_RANK = "reference_rank"
    QOE_RANK = "qoe_rank"

    def __str__(self) -> str:
        return self.value


def original_order(frames: SegmentFrames) -> List[int]:
    """Decode order: frames 1..N-1 as the encoder emitted them."""
    return list(range(1, len(frames)))


def unreferenced_tail_order(frames: SegmentFrames) -> List[int]:
    """Referenced frames first (decode order), unreferenced ones at tail.

    Within each group the original order is preserved; this mirrors
    BETA's reordering, where only the unreferenced B-frames are eligible
    for dropping and they are dropped from the end.
    """
    referenced = set(frames.referenced_indices())
    candidates = range(1, len(frames))
    head = [idx for idx in candidates if idx in referenced]
    tail = [idx for idx in candidates if idx not in referenced]
    return head + tail


def reference_rank_order(frames: SegmentFrames) -> List[int]:
    """Rank by transitive inbound-reference weight, most-referenced first.

    The tail ends up holding frames whose loss affects the fewest other
    frames; among equally-unimportant frames the ones carrying the least
    motion (cheapest to conceal) go last.
    """
    influence = frames.transitive_reference_weight()
    motion = frames.motion.tolist()
    candidates = list(range(1, len(frames)))
    # Sort key: primary = influence descending; secondary = drop cost
    # (motion) descending, so the cheapest-to-drop frames are last;
    # tertiary = display order for stability.
    candidates.sort(key=lambda idx: (-influence[idx], -motion[idx], idx))
    return candidates


def qoe_rank_order(frames: SegmentFrames) -> List[int]:
    """Rank by estimated QoE cost of dropping the frame, costliest first.

    The cost estimate combines the concealment error of the frame itself
    (proportional to the motion it carries) with the error its loss
    injects into every frame that references it, directly or transitively
    (the structural influence weight).  The cheapest-to-drop frames land
    at the tail of the download order.
    """
    influence = frames.transitive_reference_weight()
    # 0.75 mirrors the QoE model's default propagation decay; the ranking
    # only needs the relative order, so the exact constant is uncritical.
    decay = 0.75
    motion = frames.motion.tolist()

    def drop_cost(idx: int) -> float:
        return motion[idx] * (1.0 + decay * influence[idx])

    candidates = list(range(1, len(frames)))
    candidates.sort(key=lambda idx: (-drop_cost(idx), idx))
    return candidates


_BUILDERS: Dict[Ordering, Callable[[SegmentFrames], List[int]]] = {
    Ordering.ORIGINAL: original_order,
    Ordering.UNREFERENCED_TAIL: unreferenced_tail_order,
    Ordering.REFERENCE_RANK: reference_rank_order,
    Ordering.QOE_RANK: qoe_rank_order,
}


def build_order(frames: SegmentFrames, ordering: Ordering) -> List[int]:
    """Materialize an ordering for a segment's frames."""
    return _BUILDERS[ordering](frames)


def validate_order(frames: SegmentFrames, order: List[int]) -> None:
    """Raise ``ValueError`` unless ``order`` permutes frames 1..N-1."""
    expected = set(range(1, len(frames)))
    if set(order) != expected or len(order) != len(expected):
        raise ValueError("ordering must be a permutation of frames 1..N-1")
