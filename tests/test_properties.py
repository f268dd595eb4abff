"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.network.link import BottleneckLink
from repro.network.traces import NetworkTrace, constant_trace
from repro.player.buffer import PlaybackBuffer
from repro.prep.manifest import QualityPoint, SegmentEntry
from repro.prep.ranking import Ordering, build_order, validate_order
from repro.qoe.metrics import PSNR, SSIM, VMAF
from repro.qoe.model import decode_segment
from repro.transport.connection import _merge_intervals
from repro.transport.cubic import CubicController, MIN_WINDOW
from repro.video.content import ContentProfile
from repro.video.encoder import encode_video

# Reusable strategies -------------------------------------------------------

intervals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=2_000),
    ).map(lambda t: (t[0], t[0] + t[1])),
    max_size=30,
)

scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMergeIntervals:
    @given(intervals)
    def test_merged_sorted_and_disjoint(self, raw):
        merged = _merge_intervals(list(raw))
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert s1 < e1
            assert e1 < s2

    @given(intervals)
    def test_coverage_preserved(self, raw):
        def cover(ranges):
            points = set()
            for s, e in ranges:
                points.update(range(s, e))
            return points

        assert cover(_merge_intervals(list(raw))) == cover(raw)


class TestCubicProperties:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=80),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_window_always_valid(self, losses, rtt):
        cc = CubicController()
        for lost in losses:
            cwnd = cc.on_round(rtt=rtt, lost=lost)
            assert cwnd >= MIN_WINDOW
            assert np.isfinite(cwnd)

    @given(st.integers(min_value=1, max_value=20))
    def test_loss_never_increases_window(self, rounds):
        cc = CubicController()
        for _ in range(rounds):
            cc.on_round(rtt=0.06, lost=False)
        before = cc.cwnd
        cc.on_round(rtt=0.06, lost=True)
        assert cc.cwnd <= before


class TestLinkProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                 max_size=40),
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.5, max_value=50.0),
    )
    def test_conservation_and_queue_bound(self, bursts, queue, mbps):
        link = BottleneckLink(constant_trace(mbps), queue_packets=queue)
        t = 0.0
        for burst in bursts:
            delivered, dropped, rtt = link.offer_round(t, burst)
            assert delivered + dropped == burst
            assert 0 <= link.queue_bytes <= queue * link.mtu + 1e-6
            assert rtt >= link.base_rtt
            t += rtt


class TestBufferProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),  # push duration
                st.floats(min_value=0.0, max_value=20.0),  # drain dt
            ),
            max_size=40,
        )
    )
    def test_invariants(self, events):
        buf = PlaybackBuffer(capacity_s=8.0)
        total_pushed = 0.0
        total_stall = 0.0
        for push, drain in events:
            buf.push_segment(push)
            total_pushed += push
            stall = buf.drain(drain)
            total_stall += stall
            assert buf.level_s >= -1e-9
            assert 0.0 <= stall <= drain + 1e-9
        assert buf.played_s + buf.level_s == pytest.approx(total_pushed)


class TestMetricProperties:
    @given(scores)
    def test_transforms_bounded(self, s):
        assert 0.0 <= VMAF.from_ssim(s) <= 100.0
        assert PSNR.lo <= PSNR.from_ssim(s) <= PSNR.hi + 1e-9
        assert 0.0 <= VMAF.normalize(VMAF.from_ssim(s)) <= 1.0

    @given(scores, scores)
    def test_transforms_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for metric in (SSIM, VMAF, PSNR):
            assert metric.from_ssim(lo) <= metric.from_ssim(hi) + 1e-9


class TestManifestProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
                st.integers(min_value=1, max_value=96),
                st.integers(min_value=100, max_value=10_000_000),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_quality_point_roundtrip(self, tuples):
        for score, frames, nbytes in tuples:
            point = QualityPoint(round(score, 4), frames, nbytes)
            assert QualityPoint.parse(point.serialize()) == point


class TestVideoProperties:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        motion=st.floats(min_value=0.05, max_value=0.95),
        complexity=st.floats(min_value=0.1, max_value=0.9),
        std=st.floats(min_value=0.5, max_value=7.5),
        cuts=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_encoder_invariants(self, motion, complexity, std, cuts):
        profile = ContentProfile(
            name=f"prop-{motion:.3f}-{complexity:.3f}-{std:.3f}",
            title="prop", genre="Test", segments=3,
            motion_mean=motion, complexity=complexity,
            size_std_mbps=std, scene_cut_rate=cuts,
        )
        video = encode_video(profile)
        for quality in (0, 12):
            for seg in video.segments[quality]:
                assert seg.frames.total_bytes == seg.total_bytes
                assert seg.frames[0].ftype.value == "I"
                assert len(seg.frames) == 96
        mean12 = np.mean(video.segment_bitrates_mbps(12))
        assert mean12 == pytest.approx(10.0, rel=0.1)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        quality=st.integers(min_value=0, max_value=12),
        drop_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_decode_monotone_under_nested_drops(self, tiny_video, quality,
                                                drop_seed):
        segment = tiny_video.segment(quality, 0)
        rng = np.random.default_rng(drop_seed)
        candidates = list(range(1, 96))
        rng.shuffle(candidates)
        prev = decode_segment(segment).score
        for k in (4, 12, 30, 60):
            score = decode_segment(segment, dropped=candidates[:k]).score
            assert score <= prev + 1e-9
            prev = score


class TestOrderingProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        ordering=st.sampled_from(list(Ordering)),
        index=st.integers(min_value=0, max_value=5),
        quality=st.integers(min_value=0, max_value=12),
    )
    def test_orderings_always_permutations(self, tiny_video, ordering,
                                           index, quality):
        frames = tiny_video.segment(quality, index).frames
        order = build_order(frames, ordering)
        validate_order(frames, order)


class TestTraceProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                 max_size=50),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_offset_preserves_std(self, samples, target):
        trace = NetworkTrace("t", np.asarray(samples))
        scaled = trace.offset_to_mean(target)
        assert scaled.mean_mbps() >= 0.0
        # When no flooring happens the std is exactly preserved.
        if (trace.samples_mbps + (target - trace.mean_mbps()) >= 0.05).all():
            assert scaled.std_mbps() == pytest.approx(trace.std_mbps())
            assert scaled.mean_mbps() == pytest.approx(target)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=-3, max_value=3),
    )
    def test_shift_wraps(self, whole, frac, shift):
        # Sample times away from integer boundaries: adding the shift can
        # round a float across a sample boundary, which is not a property
        # violation, just float arithmetic.
        t = whole + frac
        trace = NetworkTrace("t", np.arange(1.0, 11.0))
        shifted = trace.shifted(shift * 10.0)  # whole-trace multiples
        assert shifted.bandwidth_mbps(t) == trace.bandwidth_mbps(t)
