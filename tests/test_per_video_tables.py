"""Numbers that depend only on the prepared video are read, not re-derived.

* A loss-free delivery scores as its drop curve's k = 0 point, which
  the offline analysis decoded with nothing dropped.  The two are
  pinned equal on every rung and segment of the tiny fixture and of
  ``bbb``, and the session reads the curve without decoding.
* BETA's b-drop levels are built once per prepared video and shared by
  every BETA that streams it.
* RobustMPC converts the manifest's segment sizes to bits once per
  session.
"""

from __future__ import annotations

import pytest

import repro.player.session as session_module
from repro.abr.base import Decision
from repro.abr.beta import BetaABR, BetaLevel
from repro.abr.bola import Bola
from repro.abr.mpc import RobustMPC
from repro.core.spec import ScenarioSpec
from repro.network.traces import constant_trace, get_trace
from repro.player.session import StreamingSession
from repro.prep.manifest import VoxelManifest
from repro.prep.prepare import get_prepared, prepare
from repro.qoe.model import QoEParams, decode_segment
from repro.transport.http import SegmentDelivery


def _count_decodes(monkeypatch):
    calls = []
    real = session_module.decode_segment

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(session_module, "decode_segment", counting)
    return calls


class TestLossFreeScores:
    @pytest.mark.parametrize("video", ["tinytest", "bbb"])
    def test_pristine_score_is_the_loss_free_decode(
        self, video, tiny_prepared
    ):
        prepared = (
            tiny_prepared if video == "tinytest" else get_prepared(video)
        )
        rungs = 0
        for row in prepared.prepared:
            for prep in row:
                curve = prep.curve
                assert curve.drop_counts[0] == 0
                assert curve.pristine_score == decode_segment(
                    prep.segment, params=prepared.params
                ).score
                rungs += 1
        assert rungs == prepared.video.num_segments * len(
            prepared.video.ladder
        )

    def _delivery(self, prepared, quality, index, skipped=(),
                  corruption=None):
        return SegmentDelivery(
            entry=prepared.manifest.entry(quality, index),
            bytes_requested=0,
            bytes_delivered=0,
            skipped_frames=list(skipped),
            corruption=dict(corruption or {}),
            elapsed=0.0,
            unreliable=True,
        )

    def test_score_delivery_reads_the_curve_only_when_nothing_is_lost(
        self, tiny_prepared, monkeypatch
    ):
        session = StreamingSession(
            tiny_prepared, Bola(), constant_trace(10.0)
        )
        calls = _count_decodes(monkeypatch)
        prep = tiny_prepared.prepared[7][2]
        # Nothing missing, or only frame 0, whose loss the scorer
        # ignores: the curve's k = 0 point, no decode.
        for skipped in ((), (0,)):
            delivery = self._delivery(tiny_prepared, 7, 2, skipped)
            assert session._score_delivery(7, 2, delivery) == (
                prep.curve.pristine_score
            )
        assert calls == []
        # A dropped or a partly lost frame is decoded as before.
        for skipped, corruption in (((5,), None), ((), {3: 0.5})):
            delivery = self._delivery(
                tiny_prepared, 7, 2, skipped, corruption
            )
            assert session._score_delivery(7, 2, delivery) == decode_segment(
                prep.segment, params=tiny_prepared.params,
                dropped=list(skipped), corruption=corruption,
            ).score
        assert len(calls) == 2

    def test_reliable_session_decodes_nothing(
        self, tiny_prepared, monkeypatch
    ):
        calls = _count_decodes(monkeypatch)
        metrics = StreamingSession(
            tiny_prepared, Bola(), get_trace("verizon", seed=2),
            ScenarioSpec(reliability="quic"),
        ).run()
        assert len(metrics.records) == tiny_prepared.video.num_segments
        assert calls == []
        for record in metrics.records:
            prep = tiny_prepared.prepared[record.quality][record.index]
            assert record.score == prep.curve.pristine_score


class TestBetaLevels:
    def test_sessions_on_one_prepared_video_share_levels(
        self, tiny_prepared
    ):
        first, second = BetaABR(tiny_prepared), BetaABR(tiny_prepared)
        built = {}
        for abr in (first, second):
            StreamingSession(
                tiny_prepared, abr, get_trace("tmobile", seed=4),
                ScenarioSpec(buffer_segments=1),
            ).run()
            for key in list(abr._table):
                level = abr._level(*key)
                assert built.setdefault(key, level) is level
        assert built
        assert first._table is second._table

    def test_other_params_get_their_own_levels(self, tiny_prepared):
        params = QoEParams(freeze_cost=0.4)
        other = prepare(tiny_prepared.video, params=params)
        level = BetaABR(tiny_prepared)._level(12, 0)
        own = BetaABR(other)._level(12, 0)
        assert own is not level
        assert own.bdrop_score != level.bdrop_score
        assert own.bdrop_score == decode_segment(
            other.video.segment(12, 0), params=params,
            dropped=list(own.bdrop_frames),
        ).score

    def test_shared_levels_equal_a_fresh_build(self, tiny_prepared):
        abr = BetaABR(tiny_prepared)
        session = StreamingSession(tiny_prepared, abr, constant_trace(10.0))
        video = tiny_prepared.video
        for quality in range(len(video.ladder)):
            for index in range(video.num_segments):
                segment = video.segment(quality, index)
                unreferenced = segment.frames.unreferenced_indices()
                # The per-frame sum the size columns replace.
                bdrop_bytes = segment.total_bytes - sum(
                    segment.frames[idx].payload_bytes
                    for idx in unreferenced
                )
                decision = Decision(quality, skip_frames=tuple(unreferenced))
                assert session._skip_frames_bytes(
                    tiny_prepared.manifest.entry(quality, index), decision
                ) == bdrop_bytes
                fresh = BetaLevel(
                    full_bytes=segment.total_bytes,
                    bdrop_bytes=bdrop_bytes,
                    bdrop_score=decode_segment(
                        segment, params=tiny_prepared.params,
                        dropped=unreferenced,
                    ).score,
                    bdrop_frames=tuple(unreferenced),
                )
                assert abr._level(quality, index) == fresh


def test_mpc_reads_segment_sizes_once_per_level(tiny_prepared, monkeypatch):
    calls = []
    real = VoxelManifest.segment_sizes

    def counting(self, quality):
        calls.append(quality)
        return real(self, quality)

    monkeypatch.setattr(VoxelManifest, "segment_sizes", counting)
    metrics = StreamingSession(
        tiny_prepared, RobustMPC(), get_trace("verizon", seed=1)
    ).run()
    assert len(metrics.records) == tiny_prepared.video.num_segments
    assert len(calls) <= tiny_prepared.manifest.num_levels
