"""RobustMPC — model-predictive-control ABR (Yin et al., SIGCOMM '15).

MPC plans over a lookahead horizon (five segments in the paper): it
predicts throughput, simulates candidate quality sequences through a
buffer model, and picks the first step of the sequence maximizing the
classic QoE objective::

    sum(bitrate_q) - lambda * |bitrate switches| - mu * rebuffer_time

RobustMPC discounts the throughput prediction by the recent maximum
relative prediction error, which is what makes it conservative on smooth
traces and — as the paper observes (§5.1) — perform poorly when traces
vary wildly (the error discount collapses the prediction).

The search enumerates the first-step quality exhaustively and continues
each branch greedily; with 13 ladder levels this keeps decisions cheap
while preserving MPC's character.  (The paper itself notes that MPC's
exhaustive search does not scale to VOXEL's enlarged decision space.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.abr.base import (
    ABRAlgorithm,
    ControlAction,
    Decision,
    DecisionContext,
    DownloadProgress,
)
from repro.prep.manifest import VoxelManifest


class RobustMPC(ABRAlgorithm):
    """RobustMPC with harmonic-mean prediction and error discounting."""

    name = "mpc"

    def __init__(
        self,
        horizon: int = 5,
        rebuffer_penalty: float = 4.3,
        switch_penalty: float = 1.0,
    ):
        self.horizon = horizon
        self.rebuffer_penalty = rebuffer_penalty
        self.switch_penalty = switch_penalty
        self._manifest: Optional[VoxelManifest] = None
        self._bits: List[List[float]] = []
        self._past_errors: List[float] = []
        self._last_prediction: Optional[float] = None

    def setup(self, manifest: VoxelManifest, buffer_capacity_s: float) -> None:
        self._manifest = manifest
        # Every rollout step reads segment sizes, so they are converted
        # to bits once per session, not once per read.
        self._bits = [
            [size * 8.0 for size in manifest.segment_sizes(quality)]
            for quality in range(manifest.num_levels)
        ]
        self._past_errors = []
        self._last_prediction = None

    # ------------------------------------------------------------------
    def _predict_throughput(self, samples: Sequence[float]) -> float:
        recent = [s for s in samples[-5:] if s > 0]
        if not recent:
            return 0.0
        harmonic = len(recent) / sum(1.0 / s for s in recent)
        # Track the prediction error of the previous step.
        if self._last_prediction is not None and samples:
            actual = samples[-1]
            if actual > 0:
                error = abs(self._last_prediction - actual) / actual
                self._past_errors.append(error)
                if len(self._past_errors) > 5:
                    self._past_errors.pop(0)
        max_error = max(self._past_errors) if self._past_errors else 0.0
        prediction = harmonic / (1.0 + max_error)
        self._last_prediction = prediction
        return prediction

    def _segment_bits(self, quality: int, index: int) -> float:
        bits = self._bits[quality]
        return bits[min(index, len(bits) - 1)]

    def _bitrate_mbps(self, quality: int, index: int) -> float:
        return self._segment_bits(quality, index) / 4e6  # 4 s segments

    # ------------------------------------------------------------------
    def choose(self, ctx: DecisionContext) -> Decision:
        prediction = self._predict_throughput(ctx.throughput_samples)
        if prediction <= 0:
            return Decision(quality=0, expected_score=ctx.entry(0).pristine_score)

        last_quality = ctx.last_quality if ctx.last_quality is not None else 0
        best_quality = 0
        best_value = -float("inf")
        for first in range(ctx.num_levels):
            value = self._rollout(ctx, first, last_quality, prediction)
            if value > best_value:
                best_value = value
                best_quality = first
        return Decision(
            quality=best_quality,
            unreliable=True,
            expected_score=ctx.entry(best_quality).pristine_score,
        )

    def _rollout(
        self,
        ctx: DecisionContext,
        first_quality: int,
        last_quality: int,
        throughput_bps: float,
    ) -> float:
        """Objective of taking ``first_quality`` now, greedy afterwards."""
        assert self._manifest is not None
        buffer_s = ctx.buffer_level_s
        prev_quality = last_quality
        total = 0.0
        quality = first_quality
        for step in range(self.horizon):
            index = ctx.segment_index + step
            if index >= self._manifest.num_segments:
                break
            if step > 0:
                # Greedy continuation: per-step best marginal objective.
                quality = self._greedy_step(
                    index, buffer_s, prev_quality, throughput_bps, ctx
                )
            bits = self._segment_bits(quality, index)
            download_s = bits / throughput_bps
            rebuffer = max(download_s - buffer_s, 0.0)
            buffer_s = max(buffer_s - download_s, 0.0) + ctx.segment_duration
            buffer_s = min(buffer_s, ctx.buffer_capacity_s)
            total += (
                self._bitrate_mbps(quality, index)
                - self.rebuffer_penalty * rebuffer
                - self.switch_penalty
                * abs(
                    self._bitrate_mbps(quality, index)
                    - self._bitrate_mbps(prev_quality, index)
                )
            )
            prev_quality = quality
        return total

    def _greedy_step(
        self,
        index: int,
        buffer_s: float,
        prev_quality: int,
        throughput_bps: float,
        ctx: DecisionContext,
    ) -> int:
        best_quality = 0
        best_value = -float("inf")
        for quality in range(ctx.num_levels):
            bits = self._segment_bits(quality, index)
            download_s = bits / throughput_bps
            rebuffer = max(download_s - buffer_s, 0.0)
            value = (
                self._bitrate_mbps(quality, index)
                - self.rebuffer_penalty * rebuffer
                - self.switch_penalty
                * abs(
                    self._bitrate_mbps(quality, index)
                    - self._bitrate_mbps(prev_quality, index)
                )
            )
            if value > best_value:
                best_value = value
                best_quality = quality
        return best_quality
