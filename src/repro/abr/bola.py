"""BOLA — Lyapunov-based buffer/utility ABR (Spiteri et al.).

This implements the BOLA-E flavour used by dash.js and by the paper: the
algorithm maximizes ``(V * (v_m + gp) - Q) / S_m`` over download options
``m`` with utility ``v_m``, size ``S_m`` and current buffer level ``Q``,
waits when every score is negative, and supports segment abandonment
(discard and restart lower) when a download falls behind.

Two aspects follow the paper's setup:

* BOLA receives the *exact* per-segment sizes, not ladder averages (§5).
* ``V`` and ``gp`` are derived from the buffer target and the utility
  range before streaming ("VOXEL automatically tunes gamma and V for the
  video's bitrate-ladder characteristics", §4.3) — the derivation keeps
  the lowest level sustainable down to one segment duration of buffer
  and makes the top level the fixed point at a full buffer.
* Small playback buffers (the paper goes down to one segment) break the
  classic derivation, so BOLA-E's placeholder-buffer trick is modelled
  by linearly mapping the real buffer into a virtual buffer space of at
  least ``min_virtual_target`` seconds.

Subclasses override :meth:`candidates` to change the decision space —
that is exactly how BOLA-SSIM and ABR* are built (§4.3).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.abr.base import (
    ABRAlgorithm,
    ControlAction,
    Decision,
    DecisionContext,
    DownloadProgress,
)
from repro.prep.manifest import VoxelManifest


@dataclass(frozen=True, slots=True)
class Candidate:
    """One download option BOLA scores.

    ``target_bytes`` is ``None`` for a full-segment download, otherwise
    the partial-download budget realizing a virtual quality level.

    ``_hash`` is the dataclass hash of the other five fields, computed
    once at construction: every decision puts the feasible candidates
    in a set.  Equality compares the five fields only.
    """

    quality: int
    size_bytes: int
    utility: float
    expected_score: float
    target_bytes: Optional[int] = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((
            self.quality, self.size_bytes, self.utility,
            self.expected_score, self.target_bytes,
        )))

    def __hash__(self) -> int:
        return self._hash


# Shared candidate memo.  :meth:`Bola.candidates` (and every override in
# this codebase) is a pure function of the segment's entry row plus
# static per-algorithm configuration, so the candidate list for one
# (algorithm config, segment) pair is computed once and shared by every
# session — including the wait-loop re-decides of a single session and
# all clients of a fleet.  Keys carry the entry-row object itself, which
# both pins its id against reuse and keeps lookups identity-fast.
_CANDIDATE_CACHE: "OrderedDict" = OrderedDict()
_CANDIDATE_CACHE_MAX = 4096


class Bola(ABRAlgorithm):
    """BOLA-E over full-segment candidates with bitrate utility.

    .. note:: :meth:`candidates` must stay a pure function of
       ``ctx.entries``, ``ctx.voxel_capable`` and static instance
       configuration (captured by :meth:`_candidates_key`) — the shared
       candidate memo depends on it.  Overrides that consult dynamic
       context (buffer, throughput) must also override
       :meth:`_candidates_key` to return ``None``, which disables the
       memo for that instance.
    """

    name = "bola"

    def __init__(
        self,
        min_virtual_target_s: float = 12.0,
        reserve_s: Optional[float] = None,
        enable_abandonment: bool = True,
        feasibility_factor: Optional[float] = 1.0,
    ):
        self.min_virtual_target_s = min_virtual_target_s
        self.reserve_s = reserve_s
        self.enable_abandonment = enable_abandonment
        # Deadline-feasibility cap (the BOLA-E/dash.js "insufficient
        # buffer" safeguard): a candidate is only eligible if it can
        # finish before the buffer runs dry at `factor x` the estimated
        # throughput.  `None` disables the cap entirely.
        self.feasibility_factor = feasibility_factor
        self._buffer_capacity_s = 0.0
        self._abandoned_segment: Optional[int] = None
        self._last_ctx: Optional[DecisionContext] = None

    # -- configuration --------------------------------------------------
    def setup(self, manifest: VoxelManifest, buffer_capacity_s: float) -> None:
        self._buffer_capacity_s = buffer_capacity_s

    # -- candidate space -------------------------------------------------
    def _candidates_key(self) -> Optional[tuple]:
        """Static configuration the candidate space depends on."""
        return (type(self),)

    def _cached_candidates(self, ctx: DecisionContext) -> List[Candidate]:
        config = self._candidates_key()
        if config is None:
            return self.candidates(ctx)
        key = (config, ctx.segment_index, ctx.voxel_capable, id(ctx.entries))
        cached = _CANDIDATE_CACHE.get(key)
        if cached is not None and cached[0] is ctx.entries:
            _CANDIDATE_CACHE.move_to_end(key)
            return cached[1]
        options = self.candidates(ctx)
        _CANDIDATE_CACHE[key] = (ctx.entries, options)
        if len(_CANDIDATE_CACHE) > _CANDIDATE_CACHE_MAX:
            _CANDIDATE_CACHE.popitem(last=False)
        return options

    def candidates(self, ctx: DecisionContext) -> List[Candidate]:
        """Full-segment options with log-bitrate utilities."""
        sizes = [ctx.entry(q).total_bytes for q in range(ctx.num_levels)]
        min_size = max(min(sizes), 1)
        return [
            Candidate(
                quality=q,
                size_bytes=sizes[q],
                utility=math.log(max(sizes[q], 1) / min_size),
                expected_score=ctx.entry(q).pristine_score,
            )
            for q in range(ctx.num_levels)
        ]

    # -- the BOLA rule ----------------------------------------------------
    def _parameters(self, options: Sequence[Candidate],
                    segment_duration: float) -> tuple:
        """Derive (V, gp, virtual_target) from the candidate utilities."""
        v_max = max(option.utility for option in options)
        reserve = self.reserve_s if self.reserve_s is not None else segment_duration
        virtual_target = max(self._buffer_capacity_s, self.min_virtual_target_s)
        if v_max <= 0:
            return 1.0, reserve, virtual_target
        v_param = (virtual_target - reserve) / v_max
        gp = reserve / max(v_param, 1e-9)
        return v_param, gp, virtual_target

    def _effective_buffer(self, ctx: DecisionContext, virtual_target: float
                          ) -> float:
        """Map the real buffer into the virtual (placeholder) space."""
        capacity = max(ctx.buffer_capacity_s, 1e-9)
        return ctx.buffer_level_s * (virtual_target / capacity)

    def choose(self, ctx: DecisionContext) -> Decision:
        self._abandoned_segment = None
        self._last_ctx = ctx
        options = self._cached_candidates(ctx)
        v_param, gp, virtual_target = self._parameters(
            options, ctx.segment_duration
        )
        buffer_eff = self._effective_buffer(ctx, virtual_target)

        if self.feasibility_factor is not None and ctx.throughput_bps > 0:
            deadline = max(ctx.buffer_level_s, 0.25 * ctx.segment_duration)
            budget_bits = (
                ctx.throughput_bps * self.feasibility_factor * deadline
            )
            feasible = [o for o in options if o.size_bytes * 8 <= budget_bits]
            # Probing escape: throughput estimates are made of past
            # downloads, so a low estimate reproduces itself (small
            # downloads measure little).  With a comfortable buffer the
            # next rung above the current quality is always allowed —
            # the abandonment machinery bounds the damage if the probe
            # was wrong.
            if (
                ctx.last_quality is not None
                and ctx.buffer_level_s >= 0.7 * ctx.buffer_capacity_s
            ):
                probe_ceiling = min(ctx.last_quality + 1, ctx.num_levels - 1)
                # Set membership: Candidate is frozen/hashable, so this
                # matches the list scan exactly without the O(n*m) eq
                # cascade on wide VOXEL candidate spaces.
                already = set(feasible)
                for option in options:
                    if (
                        option.quality <= probe_ceiling
                        and option not in already
                    ):
                        feasible.append(option)
                        already.add(option)
            if feasible:
                options = feasible
            else:
                options = [min(options, key=lambda o: o.size_bytes)]

        best: Optional[Candidate] = None
        best_score = 0.0
        for option in options:
            score = (
                v_param * (option.utility + gp) - buffer_eff
            ) / max(option.size_bytes, 1)
            if best is None or score > best_score:
                best, best_score = option, score

        assert best is not None
        if best_score <= 0:
            # Buffer high enough that no download is worthwhile yet.
            return Decision(
                quality=best.quality, wait_s=min(0.5, ctx.segment_duration / 4)
            )

        # First segment with no throughput knowledge: start safe — the
        # complete lowest quality level, no frame drops.
        if ctx.throughput_bps <= 0 and ctx.last_quality is None:
            full_low = [
                o for o in options
                if o.quality == 0 and o.target_bytes is None
            ]
            lowest = full_low[0] if full_low else max(
                (o for o in options if o.quality == 0),
                key=lambda o: o.size_bytes,
                default=min(options, key=lambda o: o.size_bytes),
            )
            return Decision(
                quality=lowest.quality,
                target_bytes=lowest.target_bytes,
                expected_score=lowest.expected_score,
            )
        return Decision(
            quality=best.quality,
            target_bytes=best.target_bytes,
            expected_score=best.expected_score,
        )

    # -- abandonment -------------------------------------------------------
    def control(self, progress: DownloadProgress) -> ControlAction:
        if not self.enable_abandonment:
            return ControlAction.cont()
        if self._abandoned_segment == progress.segment_index:
            return ControlAction.cont()  # at most one restart per segment
        if progress.quality == 0 or progress.throughput_bps <= 0:
            return ControlAction.cont()
        sent_frac = progress.bytes_sent / max(progress.bytes_total, 1)
        if sent_frac > 0.75:
            return ControlAction.cont()  # nearly done; finishing is cheaper

        remaining_bits = (progress.bytes_total - progress.bytes_sent) * 8
        remaining_time = remaining_bits / progress.throughput_bps
        if remaining_time <= progress.buffer_level_s:
            return ControlAction.cont()

        # Falling behind: restart at the highest quality that fits the
        # remaining buffer with some slack.
        budget_bits = progress.buffer_level_s * progress.throughput_bps * 0.8
        restart_quality = 0
        if self._last_ctx is not None:
            for quality in range(progress.quality - 1, -1, -1):
                if self._last_ctx.entry(quality).total_bytes * 8 <= budget_bits:
                    restart_quality = quality
                    break
        self._abandoned_segment = progress.segment_index
        self._count_control("restart")
        return ControlAction.restart(min(restart_quality, progress.quality - 1))