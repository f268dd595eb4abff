"""Analytic QoE model: encoding distortion + loss propagation.

This module replaces FFmpeg's ``ssim`` filter (and the VMAF/PSNR tools)
with an analytic model that maps *what was delivered* to a per-frame and
per-segment quality score.  Two distortion sources combine:

**Encoding distortion.**  The paper scores every stream against the Q12
(4K) encode as the pristine reference, so Q12 without loss is SSIM 1.0 by
construction and lower ladder rungs pay a rate-distortion penalty::

    d_enc(segment, q) = c_seg * ((R_top / R_q) ** eta - 1)

with ``c_seg`` growing with the segment's spatial/temporal activity.  The
constants are calibrated against Fig. 1d: most Q9 segments score below
0.99 while static segments stay above, and Q6 lands around 0.88-0.98.

**Loss distortion.**  A frame missing entirely is concealed by repeating
the previous decoded frame; its error grows with the *accumulated motion*
since that frame (so consecutive drops — e.g. naive tail-only drops — hurt
super-linearly, the effect behind Fig. 2b).  A partially delivered frame
is zero-padded and error-concealed, costing a fraction of a full drop.
Errors propagate through the prediction graph: a frame referencing a
damaged frame inherits ``weight * decay`` of its error, transitively.

All scores are all-component-SSIM-like values in [0, 1].  VMAF and PSNR
are monotone reparameterizations of the same underlying distortion
(:mod:`repro.qoe.metrics`), which is what makes VOXEL "QoE-metric
agnostic" in this reproduction, matching §5.2/Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.video.encoder import EncodedSegment
from repro.video.frames import FrameType, SegmentFrames


@dataclass(frozen=True)
class QoEParams:
    """Tunable constants of the analytic QoE model.

    The defaults are calibrated so the §3 insights reproduce: at Q12 the
    median segment of the canonical videos tolerates 10-20 % frame drops
    at SSIM 0.99; tolerance shrinks at Q9/0.99 and recovers at Q9/0.95.
    """

    # Encoding rate-distortion: d = c_seg * ((R_top/R)**eta - 1).
    # The sub-linear exponent keeps the bottom of the ladder plausible
    # (Q0 at 144p scores ~0.8 against the 4K reference, not ~0.3) while
    # still putting most Q9 segments below 0.99 (Fig. 1d).
    rd_eta: float = 0.45
    rd_base: float = 0.002
    rd_activity: float = 0.060

    # Loss model.
    freeze_cost: float = 0.16  # distortion per unit accumulated motion
    freeze_cap: float = 0.85  # a frozen frame can't be worse than this
    corrupt_cost: float = 0.30  # full-payload corruption vs full drop
    propagation_decay: float = 0.75  # per-hop error attenuation
    max_frame_distortion: float = 0.95

    def encoding_distortion(self, activity: float, rate_ratio: float) -> float:
        """Distortion of a loss-free segment at ``R_top / R_q == rate_ratio``."""
        c_seg = self.rd_base + self.rd_activity * activity
        return c_seg * (rate_ratio ** self.rd_eta - 1.0)


DEFAULT_PARAMS = QoEParams()


class _SegmentDecodeContext:
    """Precomputed arrays for fast repeated decode simulation.

    Decoding the same segment with hundreds of different delivered-frame
    subsets dominates the offline analysis, so the reference graph is
    flattened into numpy-friendly arrays once.  A context depends only on
    each frame's references and motion, which every rung of a segment
    shares, so one context serves all of them
    (:func:`share_decode_contexts`).
    """

    __slots__ = (
        "n",
        "motion",
        "references",
        "depth_groups",
        "level_frames",
        "level_refs",
        "level_weights",
        "level_bounds",
    )

    def __init__(self, frames: SegmentFrames):
        self.n = len(frames)
        self.motion = frames.motion
        self.references = frames.references

        # Pad each frame's reference list to a fixed width so propagation
        # can gather with one fancy-index per dependency *depth level*.
        # Padding entries point at frame 0 with weight 0 (harmless: they
        # contribute nothing).
        max_refs = max((len(refs) for refs in frames.references), default=0)
        width = max(max_refs, 1)
        ref_idx_padded = np.zeros((self.n, width), dtype=np.intp)
        ref_w_padded = np.zeros((self.n, width), dtype=float)
        depth = np.zeros(self.n, dtype=np.intp)
        for index, refs in enumerate(frames.references):
            for slot, (ref, weight) in enumerate(refs):
                ref_idx_padded[index, slot] = ref
                ref_w_padded[index, slot] = weight

        # Dependency depth = longest reference chain below the frame.
        # Frames at the same depth have no references among each other,
        # so each depth level propagates as one vectorized step.
        order = list(reversed(frames._topological_order()))  # referees first
        for idx in order:
            refs = frames.references[idx]
            if refs:
                depth[idx] = 1 + max(depth[ref] for ref, _ in refs)
        # Propagation plan, one step per dependency depth in depth order:
        # the frames above depth 0 sorted by depth (display order within
        # a level), their padded references and weights, and where each
        # level's slice ends.  A batch of deliveries runs every level as
        # one gather.  One delivery runs small groups (the sequential
        # P-frame chain) as scalar Python steps — cheaper than a
        # vectorized gather for 1-4 frames — and wide groups (the B-frame
        # layers) as one einsum each.  A small group is the tuple of its
        # frames, whose references the step reads from ``references``; a
        # wide group is its slice of the level arrays.
        by_depth = np.argsort(depth, kind="stable")
        by_depth = by_depth[depth[by_depth] > 0]
        self.level_frames = by_depth
        self.level_refs = ref_idx_padded[by_depth]
        self.level_weights = ref_w_padded[by_depth]
        sizes = np.bincount(depth[by_depth])
        self.level_bounds = tuple(np.cumsum(sizes[sizes > 0]).tolist())
        # Tuples throughout: a retained context then holds no container
        # the garbage collector keeps tracking, since a tuple of untracked
        # items leaves its care at the first collection that sees it.
        depth_groups = []
        start = 0
        for stop in self.level_bounds:
            if stop - start <= 4:
                group = tuple(by_depth[start:stop].tolist())
                depth_groups.append(("s", group))
            else:
                level = slice(start, stop)
                depth_groups.append((
                    "v",
                    (
                        by_depth[level],
                        self.level_refs[level],
                        self.level_weights[level],
                    ),
                ))
            start = stop
        self.depth_groups = tuple(depth_groups)


def _context(frames: SegmentFrames) -> _SegmentDecodeContext:
    """The decode tables of ``frames``, built once per segment.

    Cached on the frames object itself, so a context lives exactly as
    long as its segment: a table keyed by ``id()`` would hand a freed
    segment's context to the next object allocated at that address.
    """
    try:
        return frames._decode_context
    except AttributeError:
        ctx = frames._decode_context = _SegmentDecodeContext(frames)
        return ctx


def share_decode_contexts(
    segments: Sequence[EncodedSegment],
) -> List[List[EncodedSegment]]:
    """Group segments by decode structure and give each group one context.

    Two segments share a context when every frame has equal references
    and motion (frame sizes play no part in decoding).  The encoder
    derives both from a segment's content, so the rungs of one segment
    normally form one group, but the structure is compared, never
    assumed.  Each group's context is attached to every member's frames,
    so later decodes of those segments build none of their own.

    Returns:
        The groups, each in input order, in order of first appearance.
    """
    groups: List[List[EncodedSegment]] = []
    for segment in segments:
        frames = segment.frames
        for members in groups:
            first = members[0].frames
            if first.references == frames.references and np.array_equal(
                first.motion, frames.motion
            ):
                members.append(segment)
                break
        else:
            groups.append([segment])
    for members in groups:
        ctx = _SegmentDecodeContext(members[0].frames)
        for segment in members:
            segment.frames._decode_context = ctx
    return groups


@dataclass
class DecodeResult:
    """Outcome of decoding a (possibly incomplete) segment.

    A batch of K deliveries (a K x n drop mask) gives K x n
    ``frame_scores`` and length-K arrays for the other three fields, row
    ``i`` describing delivery ``i``.

    Attributes:
        frame_scores: SSIM-like score per frame in display order.
        score: segment score (mean over frames), the paper's per-segment
            "SSIM score".
        delivered_frames: number of frames whose payload arrived in full.
        distortion: mean total distortion (1 - score before clipping).
    """

    frame_scores: np.ndarray
    score: float
    delivered_frames: int
    distortion: float


def decode_segment(
    segment: EncodedSegment,
    params: QoEParams = DEFAULT_PARAMS,
    dropped: Optional[Iterable[int]] = None,
    corruption: Optional[Dict[int, float]] = None,
    rate_ratio: Optional[float] = None,
) -> DecodeResult:
    """Simulate decoding a segment with the given losses.

    Args:
        segment: the coded segment.
        params: model constants.
        dropped: display indices of frames whose payload is entirely
            missing (their headers arrived, so the decoder knows to
            conceal them by repeating the previous frame).  A K x n
            boolean array instead decodes K drop-only deliveries in one
            batch, row ``i`` marking the frames delivery ``i`` drops;
            ``corruption`` must then be ``None``.
        corruption: map display index -> fraction of the frame payload
            lost in transit (zero-padded before decode).  Values are
            clipped to [0, 1]; a fraction of 1.0 equals a full drop.
        rate_ratio: ``R_top / R_q`` for the encoding-distortion term.  If
            omitted it is derived from the segment's quality level and
            ladder position assuming the Tab. 2 ladder.

    Returns:
        The per-frame and segment scores; for a batch, one row each.
    """
    if isinstance(dropped, np.ndarray) and dropped.ndim == 2:
        return _decode_batch(segment, params, dropped, corruption, rate_ratio)
    ctx = _context(segment.frames)
    n = ctx.n

    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)

    dropped_mask = np.zeros(n, dtype=bool)
    if dropped is not None:
        for idx in dropped:
            if idx == 0:
                raise ValueError("the I-frame (frame 0) can never be dropped")
            dropped_mask[idx] = True

    corrupt_frac = np.zeros(n, dtype=float)
    if corruption:
        for idx, frac in corruption.items():
            if dropped_mask[idx]:
                continue
            corrupt_frac[idx] = min(max(frac, 0.0), 1.0)

    error = _decode_errors(ctx, dropped_mask, corrupt_frac, params)
    frame_scores = np.clip(1.0 - d_enc - error, 0.0, 1.0)
    score = float(frame_scores.mean())
    return DecodeResult(
        frame_scores=frame_scores,
        score=score,
        delivered_frames=int(n - dropped_mask.sum()),
        distortion=float((d_enc + error).mean()),
    )


def _decode_errors(
    ctx: _SegmentDecodeContext,
    dropped: np.ndarray,
    corrupt_frac: np.ndarray,
    params: QoEParams,
) -> np.ndarray:
    """Per-frame decode error from drops, corruption, and propagation."""
    n = ctx.n
    error = np.zeros(n, dtype=float)
    any_drop = bool(dropped.any())

    # Freeze error for dropped frames: accumulated motion since the last
    # delivered frame (display order), capped.  Frame 0 (I) is never
    # dropped, so every run of drops has a delivered left edge; the
    # accumulated motion of a run is a cumsum reset at delivered frames.
    if any_drop:
        masked = np.where(dropped, ctx.motion, 0.0)
        running = np.cumsum(masked)
        # Value of the cumsum at the most recent delivered frame.
        at_delivered = np.where(dropped, -np.inf, running)
        base = np.maximum.accumulate(at_delivered)
        gap = running - base
        error = np.where(
            dropped,
            np.minimum(params.freeze_cost * gap, params.freeze_cap),
            0.0,
        )

    # Corruption error for zero-padded partial frames.
    if corrupt_frac.any():
        error = error + np.where(
            dropped, 0.0, corrupt_frac * (params.corrupt_cost * ctx.motion)
        )

    if not error.any():
        return error

    # Propagate through the prediction DAG, one dependency depth level at
    # a time (frames at the same depth never reference each other).
    decay = params.propagation_decay
    cap = params.max_frame_distortion
    references = ctx.references
    for kind, group in ctx.depth_groups:
        if kind == "s":
            # A dropped frame keeps its freeze error; only delivered
            # frames inherit decode errors from damaged references.
            for idx in group:
                if dropped[idx]:
                    continue
                inherited = 0.0
                for ref, weight in references[idx]:
                    inherited += weight * error[ref]
                if inherited:
                    error[idx] = min(error[idx] + decay * inherited, cap)
            continue
        group, refs, weights = group
        inherited = np.einsum("ij,ij->i", weights, error[refs])
        if not inherited.any():
            continue
        updated = np.minimum(error[group] + decay * inherited, cap)
        error[group] = np.where(dropped[group], error[group], updated)
    return error


#: The damage of the last batch: ``(context, mask, params, error)``.
#: Prep decodes one drop mask on every rung of a group in a row, and the
#: damage depends on the context, the mask and the params only, so one
#: slot serves the other rungs.  The context is held, never its ``id()``.
_last_batch: Optional[tuple] = None


def _decode_batch(
    segment: EncodedSegment,
    params: QoEParams,
    dropped: np.ndarray,
    corruption: Optional[Dict[int, float]],
    rate_ratio: Optional[float],
) -> DecodeResult:
    """Decode K drop-only deliveries of ``segment``, one per mask row.

    Row ``i`` is bit-identical to the one-delivery decode of that row.
    The rows are taken C-contiguous: the row means of an F-ordered array
    differ from the per-row means in the last bits.
    """
    global _last_batch
    if corruption is not None:
        raise ValueError("a drop-mask batch carries no corruption")
    ctx = _context(segment.frames)
    dropped = np.ascontiguousarray(dropped, dtype=bool)
    if dropped.shape[1] != ctx.n:
        raise ValueError(
            f"drop masks have {dropped.shape[1]} columns for {ctx.n} frames"
        )
    if dropped[:, 0].any():
        raise ValueError("the I-frame (frame 0) can never be dropped")

    last = _last_batch
    if (
        last is not None
        and last[0] is ctx
        and last[2] == params
        and np.array_equal(last[1], dropped)
    ):
        error = last[3]
    else:
        error = _batch_errors(ctx, dropped, params)
        _last_batch = (ctx, dropped.copy(), params, error)

    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)
    frame_scores = np.clip(1.0 - d_enc - error, 0.0, 1.0)
    return DecodeResult(
        frame_scores=frame_scores,
        score=frame_scores.mean(axis=1),
        delivered_frames=ctx.n - dropped.sum(axis=1),
        distortion=(d_enc + error).mean(axis=1),
    )


def _batch_errors(
    ctx: _SegmentDecodeContext, dropped: np.ndarray, params: QoEParams
) -> np.ndarray:
    """K x n decode error of K drop-only deliveries (C-contiguous).

    The same arithmetic as :func:`_decode_errors`, one row per delivery.
    Without corruption a delivered frame's error is exactly 0 until its
    own depth level, so ``min(0 + decay * inherited, cap)`` is the update
    and a zero ``inherited`` leaves it at 0, as the one-delivery skip
    rules do; summing the reference axis adds in the same order.
    """
    masked = np.where(dropped, ctx.motion, 0.0)
    running = np.cumsum(masked, axis=1)
    base = np.maximum.accumulate(
        np.where(dropped, -np.inf, running), axis=1
    )
    error = np.where(
        dropped,
        np.minimum(params.freeze_cost * (running - base), params.freeze_cap),
        0.0,
    )
    decay = params.propagation_decay
    cap = params.max_frame_distortion
    start = 0
    for stop in ctx.level_bounds:
        group = ctx.level_frames[start:stop]
        refs = ctx.level_refs[start:stop]
        weights = ctx.level_weights[start:stop]
        inherited = (weights * error[:, refs]).sum(axis=2)
        error[:, group] = np.where(
            dropped[:, group],
            error[:, group],
            np.minimum(decay * inherited, cap),
        )
        start = stop
    return error


def decode_segment_scalar(
    segment: EncodedSegment,
    params: QoEParams = DEFAULT_PARAMS,
    dropped: Optional[Iterable[int]] = None,
    corruption: Optional[Dict[int, float]] = None,
    rate_ratio: Optional[float] = None,
) -> DecodeResult:
    """Pure-Python reference decode, bit-identical to :func:`decode_segment`.

    Every arithmetic step mirrors the vectorized pipeline in evaluation
    order (same parenthesization, same sequential accumulation the numpy
    kernels use), so the property tests can require exact equality rather
    than tolerances.  Only the final mean reductions go through numpy —
    they are reductions over the already-compared per-frame values.
    """
    frames = segment.frames
    n = len(frames)
    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)

    dropped_set = set()
    if dropped is not None:
        for idx in dropped:
            if idx == 0:
                raise ValueError("the I-frame (frame 0) can never be dropped")
            dropped_set.add(idx)

    corrupt = [0.0] * n
    if corruption:
        for idx, frac in corruption.items():
            if idx in dropped_set:
                continue
            corrupt[idx] = min(max(frac, 0.0), 1.0)

    motion = frames.motion.tolist()
    error = [0.0] * n

    # Freeze error: cumulative dropped motion since the last delivered
    # frame (the cumsum-reset the vector path expresses with a running
    # maximum over delivered checkpoints).
    if dropped_set:
        running = 0.0
        base = float("-inf")
        for i in range(n):
            if i in dropped_set:
                running = running + motion[i]
                gap = running - base
                error[i] = min(params.freeze_cost * gap, params.freeze_cap)
            elif running > base:
                base = running

    if any(corrupt):
        for i in range(n):
            if i not in dropped_set:
                error[i] = error[i] + corrupt[i] * (
                    params.corrupt_cost * motion[i]
                )

    if any(error):
        # Dependency depth per frame (longest reference chain), then one
        # propagation pass per depth level — the same plan the vector
        # path precomputes, including its small-group skip rule.
        depth = [0] * n
        for idx in reversed(frames._topological_order()):
            refs = frames.references[idx]
            if refs:
                depth[idx] = 1 + max(depth[ref] for ref, _ in refs)
        decay = params.propagation_decay
        cap = params.max_frame_distortion
        for level in range(1, max(depth) + 1):
            group = [i for i in range(n) if depth[i] == level]
            if len(group) <= 4:
                for idx in group:
                    if idx in dropped_set:
                        continue
                    inherited = 0.0
                    for ref, weight in frames.references[idx]:
                        inherited += weight * error[ref]
                    if inherited:
                        error[idx] = min(error[idx] + decay * inherited, cap)
                continue
            inherited_by: Dict[int, float] = {}
            for idx in group:
                total = 0.0
                for ref, weight in frames.references[idx]:
                    total += weight * error[ref]
                inherited_by[idx] = total
            if not any(inherited_by.values()):
                continue
            for idx in group:
                if idx in dropped_set:
                    continue
                error[idx] = min(
                    error[idx] + decay * inherited_by[idx], cap
                )

    frame_scores = np.array(
        [min(max(1.0 - d_enc - e, 0.0), 1.0) for e in error], dtype=float
    )
    return DecodeResult(
        frame_scores=frame_scores,
        score=float(frame_scores.mean()),
        delivered_frames=n - len(dropped_set),
        distortion=float(np.array(
            [d_enc + e for e in error], dtype=float
        ).mean()),
    )


_RATE_RATIO_CACHE: Dict[int, float] = {}


def _default_rate_ratio(segment: EncodedSegment) -> float:
    """R_top / R_q from the Tab. 2 ladder for the segment's level.

    The default ladder is a module constant, so the ratio per quality
    level is computed once instead of rebuilding the ladder per decode.
    """
    ratio = _RATE_RATIO_CACHE.get(segment.quality)
    if ratio is None:
        from repro.video.ladder import default_ladder

        ladder = default_ladder()
        top = ladder[-1].avg_bitrate_mbps
        ratio = top / ladder[segment.quality].avg_bitrate_mbps
        _RATE_RATIO_CACHE[segment.quality] = ratio
    return ratio


def pristine_score(
    segment: EncodedSegment,
    params: QoEParams = DEFAULT_PARAMS,
    rate_ratio: Optional[float] = None,
) -> float:
    """Loss-free segment score — pure encoding distortion."""
    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)
    return float(np.clip(1.0 - d_enc, 0.0, 1.0))
