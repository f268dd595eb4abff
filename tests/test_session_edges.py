"""Edge-case tests for the streaming session internals."""

import numpy as np
import pytest

from repro.abr import make_abr
from repro.abr.base import (
    ABRAlgorithm,
    ControlAction,
    Decision,
    DecisionContext,
    DownloadProgress,
)
from repro.core.spec import ScenarioSpec
from repro.network.traces import NetworkTrace, constant_trace, tmobile_trace
from repro.player.session import StreamingSession


class FixedABR(ABRAlgorithm):
    """Always requests a fixed quality; optionally a byte target."""

    name = "fixed"

    def __init__(self, quality=5, target_bytes=None, unreliable=True,
                 wait_first=0.0):
        self.quality = quality
        self.target_bytes = target_bytes
        self.unreliable = unreliable
        self._wait_first = wait_first

    def choose(self, ctx: DecisionContext) -> Decision:
        wait, self._wait_first = self._wait_first, 0.0
        return Decision(
            quality=self.quality,
            target_bytes=self.target_bytes,
            unreliable=self.unreliable,
            wait_s=wait,
        )


class RestartingABR(FixedABR):
    """Restarts the first download once, then continues."""

    def __init__(self, quality=8, restart_to=2):
        super().__init__(quality=quality)
        self.restart_to = restart_to
        self._restarted = False

    def control(self, progress: DownloadProgress) -> ControlAction:
        if not self._restarted and progress.quality == self.quality:
            self._restarted = True
            return ControlAction.restart(self.restart_to)
        return ControlAction.cont()


class TruncatingABR(FixedABR):
    """Truncates every download at half its total."""

    def control(self, progress: DownloadProgress) -> ControlAction:
        if progress.bytes_sent >= progress.bytes_total // 2:
            return ControlAction.truncate(at_bytes=progress.bytes_sent)
        return ControlAction.cont()


def _session(prepared, abr, trace=None, **spec_kwargs):
    spec = ScenarioSpec(**{"buffer_segments": 2, **spec_kwargs})
    return StreamingSession(
        prepared, abr,
        trace if trace is not None else constant_trace(10.0),
        spec,
    )


class TestRestartPath:
    def test_restart_is_recorded(self, tiny_prepared):
        metrics = _session(tiny_prepared, RestartingABR()).run()
        restarted = [r for r in metrics.records if r.restarts > 0]
        assert len(restarted) == 1
        record = restarted[0]
        assert record.quality == 2  # final quality is the restart target
        assert record.wasted_bytes >= 0

    def test_restart_still_delivers_segment(self, tiny_prepared):
        metrics = _session(tiny_prepared, RestartingABR()).run()
        assert len(metrics.records) == 6
        assert all(r.bytes_delivered > 0 for r in metrics.records)


class TestTruncationPath:
    def test_truncation_flag_and_skip(self, tiny_prepared):
        metrics = _session(tiny_prepared, TruncatingABR(quality=9)).run()
        truncated = [r for r in metrics.records if r.truncated]
        assert truncated, "every segment should have been truncated"
        for record in truncated:
            assert record.bytes_requested < record.total_bytes
            assert record.skipped_frame_count > 0
            assert record.score <= record.pristine_score + 1e-9

    def test_truncation_never_cuts_reliable_part(self, tiny_prepared):
        metrics = _session(tiny_prepared, TruncatingABR(quality=9)).run()
        for record in metrics.records:
            entry = tiny_prepared.manifest.entry(record.quality, record.index)
            assert record.bytes_requested >= entry.reliable_size


class TestWaitPath:
    def test_initial_wait_consumes_time(self, tiny_prepared):
        waiting = _session(tiny_prepared, FixedABR(wait_first=2.0)).run()
        direct = _session(tiny_prepared, FixedABR()).run()
        assert waiting.wall_duration >= direct.wall_duration


class TestTargetBytes:
    def test_explicit_target_respected(self, tiny_prepared):
        entry = tiny_prepared.manifest.entry(12, 0)
        target = entry.quality_points[-1].bytes
        abr = FixedABR(quality=12, target_bytes=target)
        metrics = _session(tiny_prepared, abr, constant_trace(50.0)).run()
        for record in metrics.records:
            assert record.bytes_requested <= max(
                target,
                tiny_prepared.manifest.entry(12, record.index).reliable_size,
            ) + 1

    def test_oversized_target_clamped(self, tiny_prepared):
        abr = FixedABR(quality=3, target_bytes=10**12)
        metrics = _session(tiny_prepared, abr).run()
        for record in metrics.records:
            assert record.bytes_requested == record.total_bytes


class TestStallAccounting:
    def test_stalls_sum_matches_records(self, tiny_prepared):
        abr = FixedABR(quality=12, unreliable=False)
        metrics = _session(
            tiny_prepared, abr, constant_trace(3.0), buffer_segments=1,
            reliability="quic",
        ).run()
        assert metrics.total_stall > 0
        # Per-record stalls (excluding idle-time stalls, which are
        # impossible here) sum to the session total.
        assert sum(r.stall_time for r in metrics.records) == pytest.approx(
            metrics.total_stall, rel=1e-6
        )

    def test_startup_not_counted_as_stall(self, tiny_prepared):
        metrics = _session(
            tiny_prepared, FixedABR(quality=0), constant_trace(50.0)
        ).run()
        assert metrics.startup_delay > 0
        assert metrics.total_stall == 0.0
        assert metrics.records[0].stall_time == 0.0


class TestThroughputSampling:
    def test_estimates_converge_to_link_rate(self, tiny_prepared):
        session = _session(
            tiny_prepared, FixedABR(quality=9), constant_trace(10.0)
        )
        session.run()
        estimate = session.throughput_estimate
        assert estimate == pytest.approx(10e6, rel=0.25)

    def test_samples_are_plausible_rates(self, tiny_prepared):
        session = _session(
            tiny_prepared, FixedABR(quality=0), constant_trace(10.0)
        )
        session.run()
        # Q0 segments are small; any recorded samples must still be
        # positive and bounded by the link rate (plus rounding slack).
        assert len(session._throughput_samples) <= 6
        for sample in session._throughput_samples:
            assert 0 < sample <= 12e6


class TestCrossTrafficSession:
    def test_session_with_cross_demand(self, tiny_prepared):
        demand = NetworkTrace("cross", np.full(400, 12.0))
        abr = make_abr("bola", prepared=tiny_prepared)
        spec = ScenarioSpec(buffer_segments=2, reliability="quic")
        session = StreamingSession(
            tiny_prepared, abr, constant_trace(20.0), spec,
            cross_demand=demand,
        )
        metrics = session.run()
        # ~8 Mbps left for the video: it streams, at reduced quality.
        assert len(metrics.records) == 6
        assert metrics.avg_bitrate_kbps < 9000
