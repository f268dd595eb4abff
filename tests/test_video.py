"""Tests for the synthetic codec: ladder, content model, GOP, encoder."""

import numpy as np
import pytest

from repro.video.content import (
    ALL_VIDEOS,
    CANONICAL_VIDEOS,
    ContentModel,
    ContentProfile,
    YOUTUBE_VIDEOS,
    get_profile,
)
from repro.video.encoder import encode_video
from repro.video.frames import FrameType, validate_reference_graph
from repro.video.gop import MINI_GOP, build_segment_frames
from repro.video.ladder import (
    FRAMES_PER_SEGMENT,
    NUM_LEVELS,
    SEGMENT_DURATION,
    default_ladder,
)
from repro.video.library import clear_cache, get_video


class TestLadder:
    def test_thirteen_levels(self):
        assert len(default_ladder()) == NUM_LEVELS == 13

    def test_bitrates_match_table2(self):
        ladder = default_ladder()
        assert ladder[0].avg_bitrate_mbps == pytest.approx(0.16)
        assert ladder[9].avg_bitrate_mbps == pytest.approx(4.3)
        assert ladder[12].avg_bitrate_mbps == pytest.approx(10.0)

    def test_bitrates_strictly_increasing(self):
        rates = [lvl.avg_bitrate_mbps for lvl in default_ladder()]
        assert rates == sorted(rates)
        assert len(set(rates)) == len(rates)

    def test_resolutions(self):
        ladder = default_ladder()
        assert ladder[0].height == 144
        assert ladder[12].height == 2160

    def test_avg_segment_bytes(self):
        q12 = default_ladder()[12]
        assert q12.avg_segment_bytes(4.0) == pytest.approx(5e6)

    def test_96_frames_per_segment(self):
        assert FRAMES_PER_SEGMENT == 96


class TestCatalog:
    def test_canonical_plus_youtube(self):
        assert CANONICAL_VIDEOS == ["bbb", "ed", "sintel", "tos"]
        assert len(YOUTUBE_VIDEOS) == 10
        assert len(ALL_VIDEOS) == 14

    def test_get_profile_aliases(self):
        assert get_profile("BigBuckBunny").name == "bbb"
        assert get_profile("BBB").name == "bbb"

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError, match="unknown video"):
            get_profile("nosuchvideo")

    def test_ed_is_1080p_only(self):
        assert get_profile("ed").max_resolution_height == 1080


class TestContentModel:
    def test_deterministic(self):
        profile = get_profile("bbb")
        a = ContentModel(profile).segments()
        b = ContentModel(profile).segments()
        assert len(a) == len(b) == profile.segments
        for seg_a, seg_b in zip(a, b):
            assert seg_a.activity == seg_b.activity
            assert np.array_equal(seg_a.frame_motion, seg_b.frame_motion)

    def test_different_videos_differ(self):
        a = ContentModel(get_profile("bbb")).segments()
        b = ContentModel(get_profile("sintel")).segments()
        assert any(
            x.activity != y.activity for x, y in zip(a, b)
        )

    def test_value_ranges(self):
        for seg in ContentModel(get_profile("ed")).segments():
            assert 0.0 < seg.activity <= 1.0
            assert 0.0 < seg.motion <= 1.0
            assert 0.0 < seg.complexity <= 1.0
            assert seg.size_multiplier > 0
            assert (seg.frame_motion > 0).all()
            assert (seg.frame_motion <= 1.0).all()

    def test_p9_is_static_and_p10_is_busy(self):
        p9 = ContentModel(get_profile("p9")).segments()
        p10 = ContentModel(get_profile("p10")).segments()
        assert np.mean([s.motion for s in p9]) < 0.25
        assert np.mean([s.motion for s in p10]) > 0.6


class TestGop:
    def test_structure(self, segment):
        frames = segment.frames
        assert frames[0].ftype is FrameType.I
        for frame in frames:
            if frame.index == 0:
                continue
            expected = (
                FrameType.P if frame.index % MINI_GOP == 0 else FrameType.B
            )
            assert frame.ftype is expected

    def test_sizes_sum_exactly(self, tiny_video):
        for quality in (0, 6, 12):
            for seg in tiny_video.segments[quality]:
                assert seg.frames.total_bytes == seg.total_bytes

    def test_rungs_share_their_structure(self, tiny_video):
        """Types, references and motion are built once per segment; each
        rung adds only its sizes."""
        for index in range(tiny_video.num_segments):
            first = tiny_video.segment(0, index).frames
            for quality in range(1, tiny_video.num_levels):
                frames = tiny_video.segment(quality, index).frames
                assert frames.types is first.types
                assert frames.references is first.references
                assert frames.motion is first.motion
                assert frames.sizes is not first.sizes

    def test_reference_graph_valid(self, tiny_video):
        for quality in (0, 12):
            for seg in tiny_video.segments[quality]:
                validate_reference_graph(seg.frames.frames)

    def test_byte_shares_near_paper(self, bbb_video):
        seg = bbb_video.segment(12, 3)
        by_type = {FrameType.I: 0, FrameType.P: 0, FrameType.B: 0}
        for frame in seg.frames:
            by_type[frame.ftype] += frame.size
        total = seg.total_bytes
        assert 0.08 <= by_type[FrameType.I] / total <= 0.25
        assert 0.5 <= by_type[FrameType.P] / total <= 0.8
        assert 0.1 <= by_type[FrameType.B] / total <= 0.35

    def test_unreferenced_frames_are_b(self, segment):
        frames = segment.frames
        for idx in frames.unreferenced_indices():
            assert frames[idx].ftype is FrameType.B

    def test_too_short_segment_rejected(self):
        content = ContentModel(get_profile("bbb"), frames_per_segment=96)
        seg = content.segments()[0]
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="too short"):
            build_segment_frames(seg, 10000, duration=0.02, fps=24.0, rng=rng)


class TestEncoder:
    def test_all_levels_and_segments(self, tiny_video):
        assert tiny_video.num_levels == 13
        assert tiny_video.num_segments == 6
        assert tiny_video.duration == pytest.approx(6 * SEGMENT_DURATION)

    def test_mean_bitrate_matches_ladder(self, bbb_video):
        for quality in (4, 9, 12):
            mean = np.mean(bbb_video.segment_bitrates_mbps(quality))
            target = bbb_video.ladder[quality].avg_bitrate_mbps
            assert mean == pytest.approx(target, rel=0.05)

    def test_std_matches_table1(self, bbb_video):
        assert bbb_video.size_std_mbps(12) == pytest.approx(3.77, abs=0.4)

    def test_vbr_cap_respected(self, bbb_video):
        for quality in (6, 12):
            avg = bbb_video.ladder[quality].avg_bitrate_mbps
            for rate in bbb_video.segment_bitrates_mbps(quality):
                assert rate <= 2.15 * avg  # 2x cap plus mild realization noise

    def test_size_pattern_consistent_across_levels(self, bbb_video):
        """Hard segments are big at every quality level (Fig. 15)."""
        q12 = np.array(bbb_video.segment_sizes(12), dtype=float)
        q6 = np.array(bbb_video.segment_sizes(6), dtype=float)
        correlation = np.corrcoef(q12, q6)[0, 1]
        assert correlation > 0.95

    def test_ed_top_levels_capped_at_1080p(self):
        video = get_video("ed")
        assert video.ladder[12].height == 1080
        assert video.ladder[12].avg_bitrate_mbps == pytest.approx(10.0)

    def test_deterministic_encode(self):
        profile = get_profile("tos")
        a = encode_video(profile)
        b = encode_video(profile)
        assert a.segment_sizes(12) == b.segment_sizes(12)
        assert a.segment(12, 0).frames[50].size == b.segment(12, 0).frames[50].size

    def test_library_cache(self):
        clear_cache()
        first = get_video("bbb")
        second = get_video("bbb")
        assert first is second
        clear_cache()
        third = get_video("bbb")
        assert third is not first
