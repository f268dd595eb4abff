"""Additional coverage: edge cases across modules that the main test
files do not reach."""

import dataclasses

import numpy as np
import pytest

from repro.abr.base import DecisionContext
from repro.abr.bola import Bola
from repro.abr.mpc import RobustMPC
from repro.network.events import SimKernel
from repro.network.link import BottleneckLink
from repro.network.traces import constant_trace, tmobile_trace
from repro.qoe.model import DEFAULT_PARAMS, QoEParams, decode_segment
from repro.transport.connection import QuicConnection
from repro.transport.http import VoxelHttp


class TestQoEParams:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_PARAMS.freeze_cost = 0.5  # type: ignore[misc]

    def test_hashable_for_cache_keys(self):
        assert hash(QoEParams()) == hash(QoEParams())
        assert QoEParams() == QoEParams()
        assert QoEParams(freeze_cost=0.2) != QoEParams()

    def test_prepared_cache_keyed_by_params(self):
        from repro.prep.prepare import _PREPARED_CACHE, get_prepared

        a = get_prepared("bbb")
        b = get_prepared("bbb", params=QoEParams())
        assert a is b  # default params hash equal
        assert ("bbb", DEFAULT_PARAMS) in _PREPARED_CACHE


class TestDecodeEdgeCases:
    def test_drop_everything_but_i_frame(self, segment):
        result = decode_segment(
            segment, dropped=list(range(1, len(segment.frames)))
        )
        assert 0.0 <= result.score < 0.9
        assert result.delivered_frames == 1

    def test_empty_inputs_equal_pristine(self, segment):
        a = decode_segment(segment)
        b = decode_segment(segment, dropped=[], corruption={})
        assert a.score == b.score

    def test_negative_corruption_clipped(self, segment):
        a = decode_segment(segment, corruption={50: -0.5})
        b = decode_segment(segment)
        assert a.score == pytest.approx(b.score)


class TestBolaParameterDerivation:
    def test_v_and_gp_relationship(self, tiny_prepared):
        """V*(v_max+gp) == virtual target and V*gp == reserve."""
        bola = Bola()
        bola.setup(tiny_prepared.manifest, 8.0)
        manifest = tiny_prepared.manifest
        entries = [manifest.entry(q, 0) for q in range(13)]
        ctx = DecisionContext(
            segment_index=0, buffer_level_s=4.0, buffer_capacity_s=8.0,
            throughput_bps=5e6, last_quality=3, manifest=manifest,
            entries=entries, segment_duration=4.0, voxel_capable=False,
        )
        options = bola.candidates(ctx)
        v_param, gp, target = bola._parameters(options, 4.0)
        v_max = max(o.utility for o in options)
        assert v_param * (v_max + gp) == pytest.approx(target)
        assert v_param * gp == pytest.approx(4.0)

    def test_degenerate_flat_utilities(self, tiny_prepared):
        from repro.abr.bola import Candidate

        bola = Bola()
        bola.setup(tiny_prepared.manifest, 8.0)
        flat = [
            Candidate(quality=q, size_bytes=1000 * (q + 1), utility=0.0,
                      expected_score=0.9)
            for q in range(3)
        ]
        v_param, gp, target = bola._parameters(flat, 4.0)
        assert np.isfinite(v_param) and np.isfinite(gp)


class TestMpcInternals:
    def test_error_history_bounded(self, tiny_prepared):
        mpc = RobustMPC()
        mpc.setup(tiny_prepared.manifest, 12.0)
        for i in range(20):
            mpc._predict_throughput(tuple(float(j + 1) * 1e6
                                          for j in range(i + 1)))
        assert len(mpc._past_errors) <= 5

    def test_prediction_discounted_by_error(self, tiny_prepared):
        mpc = RobustMPC()
        mpc.setup(tiny_prepared.manifest, 12.0)
        first = mpc._predict_throughput((8e6,) * 5)
        # A wildly wrong step raises the max error and cuts predictions.
        mpc._predict_throughput((8e6,) * 4 + (1e6,))
        third = mpc._predict_throughput((8e6,) * 5)
        assert third < first


class TestHttpEdges:
    def _http(self, trace=None, queue_packets=32):
        link = BottleneckLink(
            trace if trace is not None else constant_trace(10.0),
            queue_packets=queue_packets,
        )
        return VoxelHttp(QuicConnection(link, SimKernel()))

    def test_refetch_with_zero_budget(self, tiny_prepared):
        # A 5 Mbps link behind an 8-packet queue drops part of a
        # top-quality segment's unreliable bytes.
        http = self._http(constant_trace(5.0), queue_packets=8)
        entry = tiny_prepared.manifest.entry(12, 2)
        delivery = http.fetch_segment(entry)
        assert delivery.lost_intervals
        assert http.refetch_lost(delivery, budget_bytes=0) == 0

    def test_refetch_noop_without_losses(self, tiny_prepared):
        http = self._http()
        entry = tiny_prepared.manifest.entry(5, 0)
        delivery = http.fetch_segment(entry)
        assert delivery.lost_intervals == []
        assert http.refetch_lost(delivery) == 0

    def test_skipped_bytes_property(self, tiny_prepared):
        http = self._http()
        entry = tiny_prepared.manifest.entry(12, 0)
        target = entry.quality_points[-1].bytes
        delivery = http.fetch_segment(entry, target_bytes=target)
        assert delivery.skipped_bytes == entry.total_bytes - delivery.bytes_requested

    def test_dropped_frames_includes_full_corruption(self, tiny_prepared):
        from repro.transport.http import SegmentDelivery

        entry = tiny_prepared.manifest.entry(5, 0)
        delivery = SegmentDelivery(
            entry=entry, bytes_requested=100, bytes_delivered=50,
            skipped_frames=[10], corruption={11: 1.0, 12: 0.5},
            elapsed=1.0, unreliable=True,
        )
        assert delivery.dropped_frames == [10, 11]
        assert delivery.partial_frames == {12: 0.5}


class TestConnectionIdleEdges:
    def test_idle_zero_is_noop(self):
        conn = QuicConnection(
            BottleneckLink(constant_trace(10.0)), SimKernel()
        )
        before = conn.kernel.now
        conn.idle(0.0)
        conn.idle(-1.0)
        assert conn.kernel.now == before

    def test_counters_accumulate(self):
        conn = QuicConnection(
            BottleneckLink(tmobile_trace(), queue_packets=8), SimKernel()
        )
        conn.download(2_000_000, reliable=False)
        conn.download(2_000_000, reliable=True)
        assert conn.total_delivered > 0
        assert conn.total_retransmitted >= 0


class TestVideoAliases:
    def test_segment_accessors_consistent(self, tiny_video):
        seg = tiny_video.segment(7, 3)
        assert seg.quality == 7
        assert seg.index == 3
        assert seg.bitrate_mbps == pytest.approx(
            seg.total_bytes * 8 / 4.0 / 1e6
        )

    def test_total_size(self, tiny_video):
        assert tiny_video.total_size_bytes(12) == sum(
            tiny_video.segment_sizes(12)
        )


class TestSurveyEdge:
    def test_more_participants_than_clips(self, tiny_prepared):
        from repro.core.api import stream_spec
        from repro.core.spec import ScenarioSpec
        from repro.experiments.survey import run_survey

        config = ScenarioSpec(
            video="tinytest", abr="bola", trace="verizon",
            buffer_segments=1, repetitions=1, reliability="quic",
        )
        session = stream_spec(config, prepared=tiny_prepared).metrics
        result = run_survey([session], [session], participants=30, seed=0)
        # Identical clips: preference is noise around 50 % plus ties
        # counted for VOXEL.
        assert 0.3 <= result.preference_voxel <= 0.9
