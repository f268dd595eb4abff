"""User-survey model (§5.3, Fig. 14).

The paper surveyed 54 participants watching one-minute clips recorded
from in-lab experiments under challenging network conditions, asking for
mean-opinion scores (MOS, 1-5) along four dimensions — clarity (visual
quality), glitches (noticeable artifacts), fluidity (rebuffering), and
overall experience — plus a pairwise preference between VOXEL and BOLA
streams of the same content.

We cannot survey humans here; instead each simulated participant maps
the objective session metrics to opinion scores through standard QoE
psychometrics (logistic mapping from stall ratio to fluidity, from mean
SSIM to clarity, from artifact rate to glitches) with seeded per-user
bias and noise.  The *deltas* the paper reports — fluidity strongly up
for VOXEL, clarity slightly down, overall up, and a large preference
majority — emerge from the objective gaps measured in §5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.player.metrics import SessionMetrics


@dataclass
class SurveyResult:
    """Aggregate outcome of one simulated survey."""

    participants: int
    mos: Dict[str, Dict[str, float]]  # system -> dimension -> mean score
    preference_voxel: float  # fraction preferring the VOXEL clip
    would_stop: Dict[str, float]  # system -> fraction who would stop

    def mos_delta(self, dimension: str) -> float:
        """VOXEL minus BOLA MOS along a dimension."""
        return self.mos["VOXEL"][dimension] - self.mos["BOLA"][dimension]


def _logistic(x: float, midpoint: float, steepness: float) -> float:
    return 1.0 / (1.0 + np.exp(-steepness * (x - midpoint)))


def _clip_mos(value: float) -> float:
    return float(np.clip(value, 1.0, 5.0))


def _session_opinion(session: SessionMetrics) -> Dict[str, float]:
    """Deterministic (pre-noise) opinion along the four dimensions."""
    stall_pct = session.buf_ratio * 100.0

    # Fluidity: stall-free playback is a 4.8; opinion collapses quickly
    # as stalls accumulate (rebuffering is "the most frustrating").
    fluidity = 1.0 + 3.8 * (1.0 - _logistic(stall_pct, 4.0, 0.55))

    # Clarity: driven by the mean quality score.
    clarity = 1.0 + 4.0 * _logistic(session.mean_ssim, 0.87, 8.0)

    # Glitches: *visible* artifacts from dropped/corrupted frames lower
    # the score (5 = no noticeable artifacts); imperceptible virtual-
    # quality drops do not count, per the §3 premise.
    artifact_rate = session.perceptible_artifact_rate
    residual = session.residual_loss_fraction
    glitches = 5.0 - 1.2 * artifact_rate - 30.0 * residual

    # Overall: fluidity dominates, clarity and glitches follow (§5.3:
    # users prefer trading buffering for quality).
    overall = 0.55 * fluidity + 0.25 * clarity + 0.20 * glitches
    return {
        "clarity": _clip_mos(clarity),
        "glitches": _clip_mos(glitches),
        "fluidity": _clip_mos(fluidity),
        "experience": _clip_mos(overall),
    }


DIMENSIONS = ("clarity", "glitches", "fluidity", "experience")


def check_participants(participants: int) -> None:
    """Raise ``ValueError`` unless at least one participant takes part."""
    if participants < 1:
        raise ValueError(f"participants must be >= 1, got {participants}")


def run_survey(
    voxel_sessions: Sequence[SessionMetrics],
    bola_sessions: Sequence[SessionMetrics],
    participants: int = 54,
    seed: int = 0,
) -> SurveyResult:
    """Simulate the §5.3 user study.

    Each participant watches one randomly chosen clip pair (a VOXEL and
    a BOLA session of the same scenario), forms noisy opinions along the
    four dimensions, prefers the clip with the higher overall opinion,
    and reports whether they would have stopped watching.
    """
    if not voxel_sessions or not bola_sessions:
        raise ValueError("need at least one session per system")
    check_participants(participants)
    rng = np.random.default_rng(seed)

    totals = {
        "VOXEL": {dim: 0.0 for dim in DIMENSIONS},
        "BOLA": {dim: 0.0 for dim in DIMENSIONS},
    }
    prefer_voxel = 0
    would_stop = {"VOXEL": 0, "BOLA": 0}

    pair_count = min(len(voxel_sessions), len(bola_sessions))
    for _ in range(participants):
        pair = int(rng.integers(0, pair_count))
        base = {
            "VOXEL": _session_opinion(voxel_sessions[pair]),
            "BOLA": _session_opinion(bola_sessions[pair]),
        }
        # Per-user bias (some users are harsher) and per-judgment noise.
        bias = float(rng.normal(0.0, 0.3))
        scores = {}
        for system in ("VOXEL", "BOLA"):
            scores[system] = {
                dim: _clip_mos(
                    base[system][dim] + bias + float(rng.normal(0.0, 0.35))
                )
                for dim in DIMENSIONS
            }
            for dim in DIMENSIONS:
                totals[system][dim] += scores[system][dim]
        if scores["VOXEL"]["experience"] >= scores["BOLA"]["experience"]:
            prefer_voxel += 1
        for system in ("VOXEL", "BOLA"):
            # Users threaten to stop when the experience is poor.
            stop_prob = _logistic(scores[system]["experience"], 2.4, -1.8)
            if rng.random() < stop_prob:
                would_stop[system] += 1

    mos = {
        system: {dim: totals[system][dim] / participants for dim in DIMENSIONS}
        for system in ("VOXEL", "BOLA")
    }
    return SurveyResult(
        participants=participants,
        mos=mos,
        preference_voxel=prefer_voxel / participants,
        would_stop={
            system: count / participants
            for system, count in would_stop.items()
        },
    )
