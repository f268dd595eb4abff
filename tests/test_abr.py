"""Tests for the ABR algorithms."""

from dataclasses import replace

import pytest

from repro.abr import make_abr
from repro.abr.abr_star import AbrStar, BolaSsim, qoe_utility
from repro.abr.base import (
    ControlVerb,
    Decision,
    DecisionContext,
    DownloadProgress,
    clamp_quality,
    safe_throughput,
)
from repro.abr.beta import BetaABR
from repro.abr.bola import Bola, Candidate
from repro.abr.mpc import RobustMPC
from repro.abr.throughput import ThroughputABR
from repro.qoe.metrics import SSIM, VMAF


def _ctx(prepared, index=1, buffer_s=6.0, capacity_s=8.0, tput=6e6,
         last=5, voxel=True, samples=None):
    manifest = prepared.manifest
    entries = [manifest.entry(q, index) for q in range(manifest.num_levels)]
    if samples is None:
        samples = (tput,) * 5 if tput > 0 else ()
    return DecisionContext(
        segment_index=index,
        buffer_level_s=buffer_s,
        buffer_capacity_s=capacity_s,
        throughput_bps=tput,
        last_quality=last,
        manifest=manifest,
        entries=entries,
        segment_duration=4.0,
        voxel_capable=voxel,
        throughput_samples=samples,
    )


def _progress(index=1, quality=8, elapsed=1.0, sent=500_000,
              total=2_000_000, buffer_s=3.0, tput=4e6):
    return DownloadProgress(
        segment_index=index,
        quality=quality,
        elapsed=elapsed,
        bytes_sent=sent,
        bytes_total=total,
        buffer_level_s=buffer_s,
        throughput_bps=tput,
    )


class TestHelpers:
    def test_clamp_quality(self):
        assert clamp_quality(-3, 13) == 0
        assert clamp_quality(20, 13) == 12
        assert clamp_quality(5, 13) == 5

    def test_safe_throughput_harmonic(self):
        assert safe_throughput([1e6, 1e6]) == pytest.approx(1e6)
        # Harmonic mean punishes dips more than spikes.
        assert safe_throughput([1e6, 9e6]) < (1e6 + 9e6) / 2

    def test_safe_throughput_default(self):
        assert safe_throughput([], default=7.0) == 7.0
        assert safe_throughput([0.0, -1.0], default=7.0) == 7.0


class TestFactory:
    def test_all_names_constructible(self, tiny_prepared):
        for name in ("tput", "bola", "mpc", "beta", "bola_ssim", "abr_star"):
            abr = make_abr(name, prepared=tiny_prepared)
            assert abr.name in name or name == "voxel"

    def test_voxel_alias(self, tiny_prepared):
        assert isinstance(make_abr("voxel", prepared=tiny_prepared), AbrStar)

    def test_beta_requires_prepared(self):
        with pytest.raises(ValueError, match="prepared"):
            make_abr("beta")

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_abr("pensieve")


class TestThroughputABR:
    def test_picks_highest_fitting(self, tiny_prepared):
        abr = ThroughputABR(safety=1.0)
        decision = abr.choose(_ctx(tiny_prepared, tput=50e6))
        assert decision.quality == 12
        decision = abr.choose(_ctx(tiny_prepared, tput=1e6))
        assert decision.quality < 6

    def test_zero_throughput_lowest(self, tiny_prepared):
        abr = ThroughputABR()
        assert abr.choose(_ctx(tiny_prepared, tput=0.0)).quality == 0

    def test_safety_monotone(self, tiny_prepared):
        ctx = _ctx(tiny_prepared, tput=8e6)
        loose = ThroughputABR(safety=1.2).choose(ctx).quality
        tight = ThroughputABR(safety=0.5).choose(ctx).quality
        assert tight <= loose

    def test_rejects_bad_safety(self):
        with pytest.raises(ValueError):
            ThroughputABR(safety=0.0)


class TestBola:
    def test_first_segment_starts_lowest_full(self, tiny_prepared):
        abr = Bola()
        abr.setup(tiny_prepared.manifest, 8.0)
        decision = abr.choose(
            _ctx(tiny_prepared, index=0, buffer_s=0.0, tput=0.0, last=None)
        )
        assert decision.quality == 0
        assert decision.target_bytes is None

    def test_higher_buffer_higher_quality(self, tiny_prepared):
        abr = Bola(feasibility_factor=None)
        abr.setup(tiny_prepared.manifest, 8.0)
        low = abr.choose(_ctx(tiny_prepared, buffer_s=1.0)).quality
        high = abr.choose(_ctx(tiny_prepared, buffer_s=7.9)).quality
        assert high >= low

    def test_full_buffer_wants_top_or_waits(self, tiny_prepared):
        abr = Bola(feasibility_factor=None)
        abr.setup(tiny_prepared.manifest, 8.0)
        decision = abr.choose(_ctx(tiny_prepared, buffer_s=7.99, tput=50e6))
        assert decision.quality >= 11 or decision.wait_s > 0

    def test_feasibility_cap_binds(self, tiny_prepared):
        capped = Bola(feasibility_factor=1.0)
        capped.setup(tiny_prepared.manifest, 8.0)
        uncapped = Bola(feasibility_factor=None)
        uncapped.setup(tiny_prepared.manifest, 8.0)
        ctx = _ctx(tiny_prepared, buffer_s=7.5, tput=1.5e6)
        assert capped.choose(ctx).quality <= uncapped.choose(ctx).quality

    def test_abandonment_restarts_lower(self, tiny_prepared):
        abr = Bola()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared, buffer_s=4.0, tput=4e6))
        # Hopelessly behind: 1.9 MB left, 1 s of buffer, 1 Mbps.
        action = abr.control(
            _progress(sent=100_000, total=2_000_000, buffer_s=1.0, tput=1e6)
        )
        assert action.verb is ControlVerb.RESTART
        assert action.restart_quality < 8

    def test_abandonment_once_per_segment(self, tiny_prepared):
        abr = Bola()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        first = abr.control(_progress(buffer_s=0.5, tput=1e6))
        second = abr.control(_progress(buffer_s=0.5, tput=1e6))
        assert first.verb is ControlVerb.RESTART
        assert second.verb is ControlVerb.CONTINUE

    def test_no_abandon_when_on_track(self, tiny_prepared):
        abr = Bola()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        action = abr.control(
            _progress(sent=1_500_000, total=2_000_000, buffer_s=6.0, tput=8e6)
        )
        assert action.verb is ControlVerb.CONTINUE

    def test_no_abandon_near_completion(self, tiny_prepared):
        abr = Bola()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        action = abr.control(
            _progress(sent=1_900_000, total=2_000_000, buffer_s=0.2, tput=1e5)
        )
        assert action.verb is ControlVerb.CONTINUE


class TestCandidate:
    @pytest.mark.parametrize("target", [None, 12_345])
    def test_hash_is_the_dataclass_hash_of_its_fields(self, target):
        option = Candidate(
            quality=3, size_bytes=1000, utility=0.25,
            expected_score=0.97, target_bytes=target,
        )
        assert hash(option) == hash((3, 1000, 0.25, 0.97, target))
        twin = Candidate(3, 1000, 0.25, 0.97, target)
        assert twin == option and hash(twin) == hash(option)
        assert {option, twin} == {option}

    def test_changed_field_changes_equality_and_hash(self):
        option = Candidate(3, 1000, 0.25, 0.97)
        other = replace(option, utility=0.5)
        assert other != option
        assert hash(other) == hash((3, 1000, 0.5, 0.97, None))
        assert other not in {option}


class TestMpc:
    def test_needs_samples(self, tiny_prepared):
        abr = RobustMPC()
        abr.setup(tiny_prepared.manifest, 12.0)
        decision = abr.choose(
            _ctx(tiny_prepared, tput=0.0, samples=(), last=None)
        )
        assert decision.quality == 0

    def test_better_network_higher_quality(self, tiny_prepared):
        rich = RobustMPC()
        rich.setup(tiny_prepared.manifest, 12.0)
        poor = RobustMPC()
        poor.setup(tiny_prepared.manifest, 12.0)
        q_rich = rich.choose(
            _ctx(tiny_prepared, tput=40e6, samples=(40e6,) * 5)
        ).quality
        q_poor = poor.choose(
            _ctx(tiny_prepared, tput=1e6, samples=(1e6,) * 5)
        ).quality
        assert q_rich > q_poor

    def test_error_discount_conservative(self, tiny_prepared):
        stable = RobustMPC()
        stable.setup(tiny_prepared.manifest, 12.0)
        wild = RobustMPC()
        wild.setup(tiny_prepared.manifest, 12.0)
        q_stable = stable.choose(
            _ctx(tiny_prepared, samples=(8e6,) * 5)
        ).quality
        # Feed wildly varying samples one decision at a time so the
        # prediction-error history builds up.
        history = (2e6, 16e6, 2e6, 16e6, 2e6)
        for i in range(2, len(history) + 1):
            decision = wild.choose(
                _ctx(tiny_prepared, samples=history[:i])
            )
        assert decision.quality <= q_stable

    def test_switch_penalty_smooths(self, tiny_prepared):
        abr = RobustMPC(switch_penalty=50.0)
        abr.setup(tiny_prepared.manifest, 12.0)
        decision = abr.choose(
            _ctx(tiny_prepared, samples=(20e6,) * 5, last=2)
        )
        # A huge switching penalty keeps the choice near the last quality.
        assert abs(decision.quality - 2) <= 2


class TestBeta:
    def test_reliable_only(self, tiny_prepared):
        abr = BetaABR(tiny_prepared)
        abr.setup(tiny_prepared.manifest, 8.0)
        decision = abr.choose(_ctx(tiny_prepared, tput=5e6))
        assert decision.unreliable is False

    def test_bdrop_variant_between_levels(self, tiny_prepared):
        abr = BetaABR(tiny_prepared)
        level = abr._level(10, 0)
        assert level.bdrop_bytes < level.full_bytes
        assert level.bdrop_score < 1.0
        segment = tiny_prepared.video.segment(10, 0)
        assert set(level.bdrop_frames) == set(
            segment.frames.unreferenced_indices()
        )

    def test_upgrades_via_bdrop(self, tiny_prepared):
        abr = BetaABR(tiny_prepared, safety=1.0)
        abr.setup(tiny_prepared.manifest, 8.0)
        # Find a budget where the full segment of q+1 does not fit but
        # the b-dropped variant does.
        for tput in (1e6, 2e6, 3e6, 4e6, 6e6, 8e6):
            decision = abr.choose(_ctx(tiny_prepared, tput=tput))
            if decision.target_bytes is not None:
                assert decision.skip_frames
                assert decision.target_bytes < tiny_prepared.manifest.entry(
                    decision.quality, 1
                ).total_bytes
                return
        pytest.skip("no b-drop opportunity at probed rates")

    def test_worst_case_restart_to_lowest(self, tiny_prepared):
        abr = BetaABR(tiny_prepared)
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        action = abr.control(_progress(buffer_s=0.5, tput=5e5))
        assert action.verb is ControlVerb.RESTART
        assert action.restart_quality == 0


class TestQoeUtility:
    def test_monotone_in_score(self):
        values = [qoe_utility(s) for s in (0.5, 0.8, 0.9, 0.99, 1.0)]
        assert values == sorted(values)

    def test_metric_pluggable(self):
        assert qoe_utility(0.95, VMAF) != qoe_utility(0.95, SSIM)
        assert qoe_utility(1.0, VMAF) == pytest.approx(1.0)


class TestBolaSsim:
    def test_candidates_include_virtual_levels(self, tiny_prepared):
        abr = BolaSsim()
        abr.setup(tiny_prepared.manifest, 8.0)
        options = abr.candidates(_ctx(tiny_prepared))
        assert any(o.target_bytes is not None for o in options)
        assert any(o.target_bytes is None for o in options)

    def test_candidates_pareto_frontier(self, tiny_prepared):
        abr = BolaSsim()
        abr.setup(tiny_prepared.manifest, 8.0)
        options = abr.candidates(_ctx(tiny_prepared))
        sizes = [o.size_bytes for o in options]
        utilities = [o.utility for o in options]
        assert sizes == sorted(sizes)
        assert utilities == sorted(utilities)
        assert all(u >= 0 for u in utilities)

    def test_without_voxel_full_segments_only(self, tiny_prepared):
        abr = BolaSsim()
        abr.setup(tiny_prepared.manifest, 8.0)
        options = abr.candidates(_ctx(tiny_prepared, voxel=False))
        assert all(o.target_bytes is None for o in options)


class TestAbrStar:
    def test_truncates_when_behind(self, tiny_prepared):
        abr = AbrStar()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        action = abr.control(
            _progress(
                quality=12, sent=1_800_000, total=2_000_000,
                buffer_s=0.05, tput=2e5,
            )
        )
        assert action.verb is ControlVerb.TRUNCATE
        assert action.truncate_to_bytes is not None
        assert action.truncate_to_bytes >= 1_800_000

    def test_continues_when_on_track(self, tiny_prepared):
        abr = AbrStar()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        action = abr.control(
            _progress(sent=1_000_000, total=2_000_000, buffer_s=6.0, tput=9e6)
        )
        assert action.verb is ControlVerb.CONTINUE

    def test_restarts_when_partial_would_be_terrible(self, tiny_prepared):
        abr = AbrStar()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared, tput=8e6))
        # Barely anything sent, deadline nearly gone: the projected
        # partial is junk, a lower full level beats it.
        action = abr.control(
            _progress(
                quality=12, sent=100_000, total=6_000_000,
                buffer_s=2.0, tput=2e6,
            )
        )
        assert action.verb in (ControlVerb.RESTART, ControlVerb.TRUNCATE)
        if action.verb is ControlVerb.RESTART:
            assert action.restart_quality < 12

    def test_bandwidth_safety_validated(self):
        with pytest.raises(ValueError):
            AbrStar(bandwidth_safety=0.1)

    def test_decisions_prefer_unreliable(self, tiny_prepared):
        abr = AbrStar()
        abr.setup(tiny_prepared.manifest, 8.0)
        assert abr.choose(_ctx(tiny_prepared)).unreliable is True

    def test_grace_period_no_control(self, tiny_prepared):
        abr = AbrStar()
        abr.setup(tiny_prepared.manifest, 8.0)
        abr.choose(_ctx(tiny_prepared))
        action = abr.control(
            _progress(elapsed=0.1, buffer_s=0.1, tput=1e5)
        )
        assert action.verb is ControlVerb.CONTINUE
