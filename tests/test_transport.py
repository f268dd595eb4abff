"""Tests for the QUIC* transport: CUBIC, connection, HTTP layer."""

import numpy as np
import pytest

from repro.network.events import SimKernel
from repro.network.link import BottleneckLink
from repro.network.traces import NetworkTrace, constant_trace, tmobile_trace
from repro.transport.connection import (
    IDLE_TIMEOUT,
    QuicConnection,
    _merge_intervals,
)
from repro.transport.cubic import (
    CUBIC_BETA,
    INITIAL_WINDOW,
    MIN_WINDOW,
    CubicController,
)
from repro.transport.http import VoxelHttp


class TestCubic:
    def test_slow_start_doubles(self):
        cc = CubicController()
        start = cc.cwnd
        cc.on_round(rtt=0.06, lost=False)
        assert cc.cwnd == pytest.approx(start * 2)

    def test_loss_multiplies_by_beta(self):
        cc = CubicController()
        for _ in range(5):
            cc.on_round(rtt=0.06, lost=False)
        before = cc.cwnd
        cc.on_round(rtt=0.06, lost=True)
        assert cc.cwnd == pytest.approx(max(before * CUBIC_BETA, MIN_WINDOW))
        assert not cc.in_slow_start

    def test_cwnd_never_below_min(self):
        cc = CubicController()
        for _ in range(30):
            cc.on_round(rtt=0.06, lost=True)
        assert cc.cwnd >= MIN_WINDOW

    def test_cubic_growth_after_loss(self):
        cc = CubicController()
        for _ in range(6):
            cc.on_round(rtt=0.06, lost=False)
        cc.on_round(rtt=0.06, lost=True)
        after_loss = cc.cwnd
        for _ in range(50):
            cc.on_round(rtt=0.06, lost=False)
        assert cc.cwnd > after_loss  # recovers toward/past W_max

    def test_hystart_exits_slow_start(self):
        cc = CubicController()
        assert cc.in_slow_start
        cc.on_round(rtt=0.06, lost=False, queue_pressure=0.9)
        assert not cc.in_slow_start

    def test_after_idle_collapses_window(self):
        cc = CubicController()
        for _ in range(6):
            cc.on_round(rtt=0.06, lost=False)
        big = cc.cwnd
        cc.after_idle()
        assert cc.cwnd <= INITIAL_WINDOW
        assert cc.ssthresh >= big  # slow start will return quickly

    def test_invalid_rtt(self):
        with pytest.raises(ValueError):
            CubicController().on_round(rtt=0.0, lost=False)

    def test_state_snapshot(self):
        cc = CubicController()
        state = cc.state()
        assert state.cwnd == cc.cwnd


class TestMergeIntervals:
    def test_empty(self):
        assert _merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert _merge_intervals([(5, 8), (0, 2)]) == [(0, 2), (5, 8)]

    def test_overlap_and_adjacency(self):
        merged = _merge_intervals([(0, 5), (5, 7), (6, 10), (20, 21)])
        assert merged == [(0, 10), (20, 21)]


def _connection(trace=None, queue=32, partially_reliable=True):
    link = BottleneckLink(
        trace if trace is not None else constant_trace(10.0),
        queue_packets=queue,
    )
    return QuicConnection(
        link, SimKernel(), partially_reliable=partially_reliable
    )


class TestConnection:
    def test_reliable_delivers_everything(self):
        conn = _connection()
        result = conn.download(2_000_000, reliable=True)
        assert result.delivered == 2_000_000
        assert result.lost == []
        assert result.complete

    def test_reliable_duration_near_ideal(self):
        conn = _connection()
        result = conn.download(5_000_000, reliable=True)
        ideal = 5_000_000 * 8 / 10e6
        assert ideal <= result.elapsed <= ideal * 1.35

    def test_unreliable_reports_losses(self):
        conn = _connection(trace=tmobile_trace(), queue=16)
        result = conn.download(5_000_000, reliable=False)
        assert result.delivered + sum(
            e - s for s, e in result.lost
        ) == result.requested

    def test_lost_intervals_sorted_disjoint(self):
        conn = _connection(trace=tmobile_trace(), queue=8)
        result = conn.download(4_000_000, reliable=False)
        for (s1, e1), (s2, e2) in zip(result.lost, result.lost[1:]):
            assert e1 < s2
        for s, e in result.lost:
            assert 0 <= s < e <= result.requested

    def test_plain_quic_forces_reliable(self):
        conn = _connection(partially_reliable=False)
        result = conn.download(1_000_000, reliable=False)
        assert result.lost == []
        assert result.delivered == 1_000_000

    def test_zero_bytes(self):
        conn = _connection()
        result = conn.download(0)
        assert result.elapsed == 0.0
        assert result.delivered == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _connection().download(-5)

    def test_progress_truncation(self):
        conn = _connection()

        def stop_early(elapsed, sent):
            return 500_000 if sent > 200_000 else None

        result = conn.download(5_000_000, reliable=True, progress=stop_early)
        assert result.truncated_at is not None
        assert result.requested <= 600_000  # clamp granularity: one round

    def test_progress_cannot_extend(self):
        conn = _connection()

        def extend(elapsed, sent):
            return 10_000_000

        result = conn.download(1_000_000, reliable=True, progress=extend)
        assert result.requested == 1_000_000

    def test_clock_advances(self):
        conn = _connection()
        before = conn.kernel.now
        conn.download(1_000_000)
        assert conn.kernel.now > before

    def test_idle_restart_shrinks_window(self):
        conn = _connection()
        conn.download(5_000_000)
        big = conn.cc.cwnd
        conn.idle(IDLE_TIMEOUT * 3)
        conn.download(100_000)
        # After the idle restart the window restarted small (it may have
        # grown again during the new download's slow start).
        assert conn.cc.ssthresh >= MIN_WINDOW
        assert big > INITIAL_WINDOW

    def test_throughput_tracks_trace_bandwidth(self):
        fast = _connection(trace=constant_trace(20.0)).download(2_000_000)
        slow = _connection(trace=constant_trace(1.0)).download(2_000_000)
        assert slow.elapsed > fast.elapsed * 10
        # And each sits near its ideal transfer time.
        assert slow.elapsed == pytest.approx(16.0, rel=0.35)

    def test_request_latency_positive(self):
        result = _connection().download(100_000)
        assert result.request_latency > 0


class TestHttpLayer:
    def test_voxel_fetch_reliable_part_always_complete(self, tiny_prepared):
        conn = _connection()
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 0)
        delivery = http.fetch_segment(entry)
        assert delivery.bytes_requested == entry.total_bytes
        assert not delivery.skipped_frames

    def test_partial_fetch_skips_tail_of_priority_order(self, tiny_prepared):
        conn = _connection()
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 0)
        target = entry.quality_points[-1].bytes
        delivery = http.fetch_segment(entry, target_bytes=target)
        assert delivery.bytes_requested <= target + 1
        assert delivery.skipped_frames
        skipped = set(delivery.skipped_frames)
        # Skipped frames must be a suffix of the priority order.
        order = list(entry.frame_order)
        suffix = set(order[len(order) - len(skipped):])
        assert skipped == suffix

    def test_target_below_reliable_clamps(self, tiny_prepared):
        conn = _connection()
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 0)
        delivery = http.fetch_segment(entry, target_bytes=10)
        assert delivery.bytes_requested == entry.reliable_size
        assert len(delivery.skipped_frames) == len(entry.frame_order)

    def test_unaware_client_fetches_plain(self, tiny_prepared):
        conn = _connection()
        http = VoxelHttp(conn, client_voxel_aware=False)
        assert not http.voxel_capable
        entry = tiny_prepared.manifest.entry(5, 0).basic_view()
        delivery = http.fetch_segment(entry, target_bytes=1000)
        assert delivery.bytes_requested == entry.total_bytes
        assert not delivery.unreliable

    def test_losses_map_to_frames(self, tiny_prepared):
        conn = _connection(trace=tmobile_trace(), queue=8)
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 1)
        delivery = http.fetch_segment(entry)
        if delivery.lost_intervals:
            assert delivery.corruption
            for frame, frac in delivery.corruption.items():
                assert 0 < frac <= 1.0
                assert frame in entry.frame_order

    def test_refetch_repairs_losses(self, tiny_prepared):
        conn = _connection(trace=tmobile_trace(seed=5), queue=8)
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 2)
        delivery = http.fetch_segment(entry)
        lost_before = delivery.residual_loss_bytes()
        if lost_before == 0:
            pytest.skip("no loss realized on this seed")
        repaired = http.refetch_lost(delivery)
        assert repaired == lost_before
        assert delivery.residual_loss_bytes() == 0
        assert not delivery.partial_frames

    def test_refetch_with_budget_partial(self, tiny_prepared):
        conn = _connection(trace=tmobile_trace(seed=5), queue=8)
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 2)
        delivery = http.fetch_segment(entry)
        lost_before = delivery.residual_loss_bytes()
        if lost_before < 2000:
            pytest.skip("not enough loss realized on this seed")
        repaired = http.refetch_lost(delivery, budget_bytes=1000)
        assert repaired <= 1000 + 1
        assert delivery.residual_loss_bytes() == lost_before - repaired

    def test_force_reliable_payload_has_no_loss(self, tiny_prepared):
        conn = _connection(trace=tmobile_trace(), queue=8)
        http = VoxelHttp(conn)
        entry = tiny_prepared.manifest.entry(12, 0)
        delivery = http.fetch_segment(entry, force_reliable=True)
        assert delivery.lost_intervals == []
        assert not delivery.unreliable
