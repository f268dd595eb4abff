"""Tests for the experiment runner, figure functions, and survey model."""

import hashlib

import numpy as np
import pytest

from repro.core.api import stream_spec
from repro.core.spec import ScenarioSpec
from repro.experiments.runner import (
    TrialSummary,
    compare,
    run_trials,
)
from repro.experiments.survey import (
    DIMENSIONS,
    _session_opinion,
    run_survey,
)
from repro.experiments import figures


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tiny_config(tiny_prepared):
    return ScenarioSpec(
        video="tinytest", abr="bola", trace="verizon",
        buffer_segments=2, repetitions=3,
    )


class TestRunner:
    def test_stream_spec(self, tiny_prepared, tiny_config):
        metrics = stream_spec(tiny_config, prepared=tiny_prepared).metrics
        assert len(metrics.records) == 6
        assert metrics.abr == "bola"

    def test_run_trials_shifts_traces(self, tiny_prepared, tiny_config):
        summary = run_trials(tiny_config, prepared=tiny_prepared)
        assert len(summary.sessions) == 3
        # Shifted traces make repetitions differ (almost surely).
        stalls = {round(s.total_stall, 6) for s in summary.sessions}
        ssims = {round(s.mean_ssim, 9) for s in summary.sessions}
        assert len(stalls) > 1 or len(ssims) > 1

    @pytest.mark.parametrize("fields", [
        {},
        {"trace_kwargs": {"outage_prob": 0.4}},
        {"trace_shift_s": 37.0},
    ], ids=["plain", "trace_kwargs", "trace_shift_s"])
    def test_first_repetition_streams_the_spec(self, tiny_prepared, fields):
        # Repetition 0 runs unshifted, so it is the spec's own session:
        # the link must see the trace the spec names, kwargs and shift
        # included, exactly as stream_spec resolves it.
        from repro.core.api import stream_spec
        from repro.obs.tracer import Tracer

        spec = ScenarioSpec(
            video="tinytest", abr="bola", trace="verizon", seed=5,
            repetitions=2, **fields,
        )
        summary = run_trials(
            spec, prepared=tiny_prepared, collect_traces=True
        )
        tracer = Tracer()
        single = stream_spec(spec, prepared=tiny_prepared, tracer=tracer)
        # Compared by digest: a diff of two whole traces is slow to render.
        assert _sha(summary.traces[0]) == _sha(tracer.to_jsonl())
        assert summary.sessions[0].summary() == single.metrics.summary()

    def test_trial_metrics_are_scoped(self, tiny_prepared, tiny_config):
        # Registry hygiene: each trial's metrics dump covers only its own
        # sessions, so back-to-back identical trials report identically
        # instead of accumulating process-wide state.
        first = run_trials(tiny_config, prepared=tiny_prepared)
        second = run_trials(tiny_config, prepared=tiny_prepared)
        assert first.metrics is not None
        assert first.metrics == second.metrics
        sessions = first.metrics["counters"][
            "experiments.sessions{abr=bola,trace=verizon}"
        ]
        assert sessions == tiny_config.repetitions

    def test_trial_metrics_merge_into_parent(self, tiny_prepared,
                                             tiny_config):
        from repro.obs import get_registry

        key = "experiments.sessions{abr=bola,trace=verizon}"
        before = get_registry().dump()["counters"].get(key, 0.0)
        run_trials(tiny_config, prepared=tiny_prepared)
        after = get_registry().dump()["counters"].get(key, 0.0)
        assert after == before + tiny_config.repetitions

    def test_summary_aggregates(self, tiny_prepared, tiny_config):
        summary = run_trials(tiny_config, prepared=tiny_prepared)
        row = summary.row()
        assert 0 <= row["buf_ratio_p90"] <= 1
        assert row["bitrate_kbps"] > 0
        assert 0 < row["ssim"] <= 1
        assert summary.ssim_samples().shape == (18,)

    def test_compare_variants(self, tiny_prepared, tiny_config):
        out = compare(
            tiny_config,
            {
                "BOLA": {"abr": "bola", "reliability": "quic"},
                "VOXEL": {"abr": "abr_star", "reliability": "quic*"},
            },
            prepared=tiny_prepared,
        )
        assert set(out) == {"BOLA", "VOXEL"}
        assert all(isinstance(v, TrialSummary) for v in out.values())

    def test_cross_traffic_config(self, tiny_prepared):
        config = ScenarioSpec(
            video="tinytest", abr="bola", buffer_segments=2,
            repetitions=1, cross_traffic_mbps=15.0,
            reliability="quic",
        )
        metrics = stream_spec(config, prepared=tiny_prepared).metrics
        assert len(metrics.records) == 6

    def test_label(self, tiny_config):
        assert "bola" in tiny_config.label()
        assert "Q*" in tiny_config.label()


class TestFigureFunctions:
    """Smoke tests on drastically reduced workloads — the benchmarks run
    the real sizes; here we verify structure and basic sanity."""

    def test_tables(self):
        rows = figures.table1_videos(("bbb",))
        assert rows[0]["genre"] == "Comedy"
        ladder = figures.table2_ladder("bbb")
        assert len(ladder) == 13
        assert ladder[-1]["avg_bitrate_mbps"] == pytest.approx(10.0)
        assert len(figures.table3_youtube()) == 10

    def test_fig1(self):
        out = figures.fig1_drop_tolerance(
            videos=("bbb",), cases=((12, 0.99),), segment_stride=15
        )
        cdf = out["Q12/0.99"]["bbb"]
        assert (cdf["x"] >= 0).all() and (cdf["x"] <= 100).all()
        assert cdf["y"][-1] == pytest.approx(1.0)

    def test_fig1d(self):
        out = figures.fig1d_low_quality_ssim(videos=("bbb",), qualities=(9,))
        assert "bbb/Q9" in out

    def test_fig2a(self):
        out = figures.fig2a_droppable_positions(
            videos=("bbb",), segment_stride=25
        )
        frac = out["bbb"]
        assert frac[0] == 0.0  # the I-frame is never droppable
        assert frac.max() <= 1.0

    def test_fig2b(self):
        out = figures.fig2b_ordering_comparison(
            videos=("bbb",), segment_stride=25
        )
        data = out["bbb"]
        # The ranking tolerates at least as much as naive tail drops.
        assert np.median(data["ranked"]["x"]) >= np.median(data["tail"]["x"])
        # Tail-only drops hit more referenced frames (§3 insight 2).
        assert (
            data["tail_referenced_fraction"]
            >= data["ranked_referenced_fraction"]
        )

    def test_fig15(self):
        out = figures.fig15_vbr_variation(videos=("ed",), qualities=(12, 6))
        assert out["ed"]["Q12"].shape == (75,)
        assert out["ed"]["Q12"].mean() > out["ed"]["Q6"].mean()


class TestSurvey:
    def _sessions(self, tiny_prepared, abr, pr, n=3):
        config = ScenarioSpec(
            video="tinytest", abr=abr, trace="tmobile",
            reliability="quic*" if pr else "quic", buffer_segments=1,
            repetitions=n,
        )
        return run_trials(config, prepared=tiny_prepared).sessions

    def test_opinion_dimensions_bounded(self, tiny_prepared):
        sessions = self._sessions(tiny_prepared, "bola", False)
        for session in sessions:
            opinion = _session_opinion(session)
            assert set(opinion) == set(DIMENSIONS)
            for value in opinion.values():
                assert 1.0 <= value <= 5.0

    def test_survey_structure(self, tiny_prepared):
        voxel = self._sessions(tiny_prepared, "abr_star", True)
        bola = self._sessions(tiny_prepared, "bola", False)
        result = run_survey(voxel, bola, participants=20, seed=1)
        assert result.participants == 20
        assert 0.0 <= result.preference_voxel <= 1.0
        for system in ("VOXEL", "BOLA"):
            for dim in DIMENSIONS:
                assert 1.0 <= result.mos[system][dim] <= 5.0
            assert 0.0 <= result.would_stop[system] <= 1.0

    def test_survey_deterministic(self, tiny_prepared):
        voxel = self._sessions(tiny_prepared, "abr_star", True)
        bola = self._sessions(tiny_prepared, "bola", False)
        a = run_survey(voxel, bola, participants=10, seed=5)
        b = run_survey(voxel, bola, participants=10, seed=5)
        assert a.preference_voxel == b.preference_voxel
        assert a.mos == b.mos

    def test_survey_requires_sessions(self, tiny_prepared):
        from repro.experiments.figures import fig14_survey

        with pytest.raises(ValueError):
            run_survey([], [], participants=5)
        with pytest.raises(ValueError, match="at least one session"):
            fig14_survey(clips=0)
        sessions = self._sessions(tiny_prepared, "bola", False, n=1)
        with pytest.raises(ValueError, match="participants must be >= 1"):
            run_survey(sessions, sessions, participants=0)

    def test_stall_free_beats_stally(self, tiny_prepared):
        good = self._sessions(tiny_prepared, "abr_star", True, n=2)
        # Fabricate a terrible comparison stream by inflating stalls.
        import copy

        bad = [copy.deepcopy(s) for s in good]
        for session in bad:
            session.total_stall = session.media_duration * 0.5
        result = run_survey(good, bad, participants=40, seed=2)
        assert result.preference_voxel > 0.7
        assert result.mos_delta("fluidity") > 0.5
