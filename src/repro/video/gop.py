"""GOP (group-of-pictures) structure generation.

Every 4-second segment at 24 fps holds 96 frames and opens with an
I-frame (a closed GOP per segment, as DASH requires for clean switching).
Between anchors we use the common hierarchical mini-GOP of size four::

    A0  b  B  b  A1  b  B  b  A2 ...

where ``A`` anchors are the I-frame and subsequent P-frames (each P
references the previous anchor and, weakly, the I-frame), ``B`` is a
*referenced* B-frame predicting from both surrounding anchors, and ``b``
are unreferenced B-frames predicting from the nearest anchor and the
middle B.  This reproduces the mix the paper reports: by bytes roughly
15 % I, 65 % P and 20 % B, with P-frames making up >30 % of frames.

Reference *weights* model the fraction of macroblocks that actually
reference each source frame; they scale with motion (static scenes copy
nearly everything from the reference, high-motion scenes re-code more
macroblocks intra-style, weakening the dependency).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.video.content import SegmentContent
from repro.video.frames import (
    FRAME_HEADER_BYTES,
    FrameType,
    SegmentFrames,
    validate_structure,
)

# Fraction of segment bytes per frame type (paper §5: "in percent of bytes,
# comprised of ~15 % I-Frames, ~65 % P- and ~20 % B-Frames").
I_BYTE_SHARE = 0.15
P_BYTE_SHARE = 0.65
B_BYTE_SHARE = 0.20

MINI_GOP = 4  # anchor spacing


class SegmentStructure(NamedTuple):
    """The rung-independent part of a segment's frames.

    Frame types, reference edges and per-frame motion follow from the
    segment's content alone; only frame sizes differ between quality
    levels.  Every rung built from one structure shares its tuples and
    its motion array.
    """

    types: Tuple[FrameType, ...]
    references: Tuple[Tuple[Tuple[int, float], ...], ...]
    motion: np.ndarray  # read-only float64


def segment_structure(
    content: SegmentContent, n_frames: int
) -> SegmentStructure:
    """Frame types, references and motion of an ``n_frames`` segment."""
    if n_frames < 2:
        raise ValueError(f"segment too short: {n_frames} frames")
    types = _frame_types(n_frames)
    references = _references(types, content, n_frames)
    validate_structure(types, references)
    # Content with fewer frames than ``n_frames`` repeats its last
    # frame's motion.
    motion = content.frame_motion
    frame_motion = motion[np.minimum(np.arange(n_frames), len(motion) - 1)]
    frame_motion.flags.writeable = False
    return SegmentStructure(
        types=tuple(types),
        references=tuple(tuple(refs) for refs in references),
        motion=frame_motion,
    )


def build_segment_frames(
    content: SegmentContent,
    total_bytes: int,
    duration: float,
    fps: float,
    rng: np.random.Generator,
) -> SegmentFrames:
    """Construct the frame structure of one coded segment.

    Args:
        content: realized content statistics of the segment.
        total_bytes: coded segment size this structure must sum to.
        duration: segment duration in seconds.
        fps: frames per second.
        rng: seeded generator for per-frame size jitter.

    Returns:
        A :class:`SegmentFrames` whose frame sizes sum exactly to
        ``total_bytes`` and whose reference graph is a valid DAG.
    """
    structure = segment_structure(content, int(round(duration * fps)))
    return rung_frames(structure, content, total_bytes, duration, fps, rng)


def rung_frames(
    structure: SegmentStructure,
    content: SegmentContent,
    total_bytes: int,
    duration: float,
    fps: float,
    rng: np.random.Generator,
) -> SegmentFrames:
    """One quality level's frames: ``structure`` with sizes summing to
    ``total_bytes``, jittered by ``rng``.  The structure was validated
    when it was built."""
    return SegmentFrames.from_columns(
        structure.types,
        _frame_sizes(structure.types, content, total_bytes, rng),
        structure.references,
        structure.motion,
        duration,
        fps,
    )


def _frame_types(n_frames: int) -> List[FrameType]:
    """I at 0, P at every MINI_GOP-th position, B elsewhere."""
    types = []
    for idx in range(n_frames):
        if idx == 0:
            types.append(FrameType.I)
        elif idx % MINI_GOP == 0:
            types.append(FrameType.P)
        else:
            types.append(FrameType.B)
    return types


def _references(
    types: List[FrameType],
    content: SegmentContent,
    n_frames: int,
) -> List[List[Tuple[int, float]]]:
    """Hierarchical mini-GOP reference edges with motion-scaled weights."""
    refs: List[List[Tuple[int, float]]] = [[] for _ in range(n_frames)]
    # Static content copies most macroblocks: strong dependency weights.
    # High-motion content re-codes more blocks: weaker weights.
    strength = float(np.clip(0.95 - 0.45 * content.motion, 0.3, 0.95))
    # One float object per weight, shared by every edge that carries it.
    long_term = 0.15 * strength
    mid_left, mid_right = 0.6 * strength, 0.5 * strength
    near_weight, mid_weight = 0.55 * strength, 0.45 * strength

    anchors = [idx for idx in range(n_frames) if types[idx] is not FrameType.B]
    for pos, anchor in enumerate(anchors):
        if types[anchor] is FrameType.P:
            prev_anchor = anchors[pos - 1]
            refs[anchor].append((prev_anchor, strength))
            if prev_anchor != 0:
                # Long-term reference to the I-frame (weak).
                refs[anchor].append((0, long_term))

    for pos in range(len(anchors)):
        left = anchors[pos]
        right = anchors[pos + 1] if pos + 1 < len(anchors) else None
        span = range(left + 1, (right if right is not None else n_frames))
        b_frames = [idx for idx in span if types[idx] is FrameType.B]
        if not b_frames:
            continue
        mid = b_frames[len(b_frames) // 2]
        for idx in b_frames:
            if idx == mid:
                refs[idx].append((left, mid_left))
                if right is not None:
                    refs[idx].append((right, mid_right))
            else:
                near_anchor = left if idx < mid else (right if right is not None else left)
                refs[idx].append((near_anchor, near_weight))
                refs[idx].append((mid, mid_weight))
    return refs


def _frame_sizes(
    types: Sequence[FrameType],
    content: SegmentContent,
    total_bytes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Split the segment's bytes across frames by type share, with jitter.

    The split honours the paper's I/P/B byte shares, adds lognormal jitter
    per frame, keeps every frame at least large enough for its header, and
    finally rescales so the sizes sum exactly to ``total_bytes`` (the
    I-frame absorbs the rounding residue).
    """
    n = len(types)
    share = {
        FrameType.I: I_BYTE_SHARE,
        FrameType.P: P_BYTE_SHARE,
        FrameType.B: B_BYTE_SHARE,
    }
    per_frame = {
        ftype: fraction * total_bytes / max(types.count(ftype), 1)
        for ftype, fraction in share.items()
    }
    predicted = np.array([ftype is not FrameType.I for ftype in types])
    # One jitter draw per non-I frame, in display order.
    jitter = np.ones(n)
    jitter[predicted] = rng.lognormal(0.0, 0.18, size=int(predicted.sum()))
    # High-motion frames code more residual, hence are bigger.
    motion = content.frame_motion[
        np.minimum(np.arange(n), len(content.frame_motion) - 1)
    ]
    motion_scale = np.where(predicted, 0.6 + 0.8 * motion, 1.0)
    base = (
        np.array([per_frame[ftype] for ftype in types]) * jitter * motion_scale
    )

    floor = FRAME_HEADER_BYTES + 8
    base = np.maximum(base, floor)
    scale = (total_bytes - floor * n) / max(base.sum() - floor * n, 1.0)
    sizes = floor + (base - floor) * max(scale, 0.0)
    sizes = np.maximum(np.round(sizes), floor).astype(np.int64)
    # Put the rounding residue on the I-frame.
    sizes[0] += total_bytes - int(sizes.sum())
    if sizes[0] < floor:  # pathological tiny segments: redistribute
        deficit = floor - int(sizes[0])
        sizes[0] = floor
        for idx in range(n - 1, 0, -1):
            take = min(deficit, int(sizes[idx]) - floor)
            sizes[idx] -= take
            deficit -= take
            if deficit == 0:
                break
    return sizes
