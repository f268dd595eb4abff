"""Tests for the live streaming session and the PANDA baseline."""

import numpy as np
import pytest

from repro.abr import make_abr
from repro.abr.panda import PandaABR
from repro.core.spec import ScenarioSpec
from repro.network.traces import constant_trace, tmobile_trace
from repro.player import LiveStreamingSession, StreamingSession, stream_live


class TestLiveSession:
    def _live(self, prepared, abr_name="bola", trace=None, buf=1,
              encoder_delay=1.0, pr=True):
        return stream_live(
            prepared,
            make_abr(abr_name, prepared=prepared),
            trace if trace is not None else constant_trace(20.0),
            buffer_segments=buf,
            encoder_delay=encoder_delay,
            reliability="quic*" if pr else "quic",
        )

    def test_availability_gates_downloads(self, tiny_prepared):
        """On a fast link the session is paced by the live edge, not the
        network: wall duration ~= broadcast duration."""
        live = self._live(tiny_prepared, trace=constant_trace(100.0))
        media = tiny_prepared.video.duration
        assert live.session.wall_duration >= media - 4.0

    def test_latency_floor(self, tiny_prepared):
        """Latency can never beat segment duration + encoder delay."""
        live = self._live(tiny_prepared, encoder_delay=1.0)
        floor = tiny_prepared.video.segment_duration + 1.0
        for latency in live.segment_latencies:
            assert latency >= floor - 1e-6

    def test_latency_reasonable_on_fast_link(self, tiny_prepared):
        live = self._live(tiny_prepared, trace=constant_trace(50.0))
        # Fast link, 1-segment buffer: latency stays near the floor.
        assert live.mean_latency < 12.0

    def test_stalls_increase_latency(self, tiny_prepared):
        fast = self._live(tiny_prepared, trace=constant_trace(50.0))
        slow = self._live(tiny_prepared, trace=constant_trace(1.2),
                          abr_name="tput")
        assert slow.final_latency >= fast.final_latency

    def test_encoder_delay_shifts_latency(self, tiny_prepared):
        small = self._live(tiny_prepared, encoder_delay=0.5)
        large = self._live(tiny_prepared, encoder_delay=3.0)
        assert large.mean_latency > small.mean_latency + 1.5

    def test_negative_encoder_delay_rejected(self, tiny_prepared):
        with pytest.raises(ValueError):
            LiveStreamingSession(
                tiny_prepared,
                make_abr("bola", prepared=tiny_prepared),
                constant_trace(10.0),
                ScenarioSpec(buffer_segments=1),
                encoder_delay=-1.0,
            )

    def test_all_segments_latencied(self, tiny_prepared):
        live = self._live(tiny_prepared)
        assert len(live.segment_latencies) == 6
        assert live.p95_latency >= live.mean_latency - 1e-9

    def test_voxel_live_over_challenging_trace(self, tiny_prepared):
        live = self._live(
            tiny_prepared, abr_name="abr_star", trace=tmobile_trace(seed=4)
        )
        assert len(live.session.records) == 6


class TestManifestFetchModes:
    def _run(self, prepared, mode):
        abr = make_abr("bola", prepared=prepared)
        spec = ScenarioSpec(
            buffer_segments=2, reliability="quic*", manifest_fetch=mode
        )
        session = StreamingSession(
            prepared, abr, constant_trace(10.0), spec
        )
        return session.run()

    def test_full_manifest_delays_startup(self, tiny_prepared):
        free = self._run(tiny_prepared, "free")
        full = self._run(tiny_prepared, "full")
        assert full.startup_delay > free.startup_delay

    def test_incremental_cheaper_than_full(self, tiny_prepared):
        incremental = self._run(tiny_prepared, "incremental")
        full = self._run(tiny_prepared, "full")
        assert incremental.startup_delay < full.startup_delay

    def test_unknown_mode_rejected(self, tiny_prepared):
        with pytest.raises(ValueError, match="manifest_fetch"):
            self._run(tiny_prepared, "telepathy")


class TestPanda:
    def _ctx(self, prepared, tput, last=None, index=1):
        from repro.abr.base import DecisionContext

        manifest = prepared.manifest
        entries = [
            manifest.entry(q, index) for q in range(manifest.num_levels)
        ]
        return DecisionContext(
            segment_index=index,
            buffer_level_s=4.0,
            buffer_capacity_s=8.0,
            throughput_bps=tput,
            last_quality=last,
            manifest=manifest,
            entries=entries,
            segment_duration=4.0,
            voxel_capable=False,
        )

    def test_starts_at_lowest_without_estimate(self, tiny_prepared):
        abr = PandaABR()
        assert abr.choose(self._ctx(tiny_prepared, 0.0)).quality == 0

    def test_rate_tracks_bandwidth(self, tiny_prepared):
        rich, poor = PandaABR(), PandaABR()
        q_rich = [rich.choose(self._ctx(tiny_prepared, 40e6)).quality
                  for _ in range(4)][-1]
        q_poor = [poor.choose(self._ctx(tiny_prepared, 1e6)).quality
                  for _ in range(4)][-1]
        assert q_rich > q_poor

    def test_hysteresis_dampens_upswitch(self, tiny_prepared):
        abr = PandaABR(up_hysteresis=5.0)
        first = abr.choose(self._ctx(tiny_prepared, 8e6, last=2))
        # A huge hysteresis margin keeps upswitches modest.
        assert first.quality <= 6

    def test_reliable_decisions(self, tiny_prepared):
        abr = PandaABR()
        assert abr.choose(self._ctx(tiny_prepared, 5e6)).unreliable is False

    def test_end_to_end(self, tiny_prepared):
        abr = PandaABR()
        spec = ScenarioSpec(buffer_segments=3, reliability="quic")
        metrics = StreamingSession(
            tiny_prepared, abr, constant_trace(8.0), spec
        ).run()
        assert len(metrics.records) == 6
        assert metrics.avg_bitrate_kbps > 500

    def test_factory(self, tiny_prepared):
        assert isinstance(make_abr("panda"), PandaABR)
