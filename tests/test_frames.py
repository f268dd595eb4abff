"""Unit tests for the frame/segment structural model."""

import pytest

from repro.video.frames import (
    FRAME_HEADER_BYTES,
    Frame,
    FrameType,
    SegmentFrames,
    validate_reference_graph,
)


def _mini_segment():
    """I P B chain: B(2) -> P(1) -> I(0)."""
    frames = [
        Frame(0, FrameType.I, 1000),
        Frame(1, FrameType.P, 500, references=((0, 0.8),)),
        Frame(2, FrameType.B, 200, references=((1, 0.5), (0, 0.2))),
    ]
    return SegmentFrames(frames=frames, duration=0.125, fps=24.0)


class TestFrame:
    def test_header_bytes_capped_by_size(self):
        assert Frame(0, FrameType.I, 10).header_bytes == 10
        assert Frame(0, FrameType.I, 5000).header_bytes == FRAME_HEADER_BYTES

    def test_payload_is_size_minus_header(self):
        frame = Frame(1, FrameType.P, 500, references=((0, 0.5),))
        assert frame.payload_bytes == 500 - FRAME_HEADER_BYTES

    def test_references_frame(self):
        frame = Frame(2, FrameType.B, 100, references=((0, 0.3), (1, 0.4)))
        assert frame.references_frame(0)
        assert frame.references_frame(1)
        assert not frame.references_frame(2)


class TestSegmentFrames:
    def test_total_bytes(self):
        seg = _mini_segment()
        assert seg.total_bytes == 1700

    def test_i_frame_is_first(self):
        assert _mini_segment().i_frame.ftype is FrameType.I

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SegmentFrames(frames=[], duration=1.0, fps=24.0)

    def test_rejects_non_i_start(self):
        frames = [Frame(0, FrameType.P, 100, references=((0, 0.5),))]
        with pytest.raises(ValueError):
            SegmentFrames(frames=frames, duration=1.0, fps=24.0)

    def test_rejects_misindexed_frames(self):
        frames = [
            Frame(0, FrameType.I, 100),
            Frame(5, FrameType.B, 50, references=((0, 0.5),)),
        ]
        with pytest.raises(ValueError):
            SegmentFrames(frames=frames, duration=1.0, fps=24.0)

    def test_frame_offsets_contiguous(self):
        seg = _mini_segment()
        offsets = seg.frame_offsets()
        assert offsets[0] == (0, 1000)
        assert offsets[1] == (1000, 1500)
        assert offsets[2] == (1500, 1700)

    def test_inbound_references(self):
        seg = _mini_segment()
        inbound = seg.inbound_references()
        assert sorted(idx for idx, _ in inbound[0]) == [1, 2]
        assert [idx for idx, _ in inbound[1]] == [2]
        assert inbound[2] == []

    def test_referenced_and_unreferenced_partition(self):
        seg = _mini_segment()
        referenced = set(seg.referenced_indices())
        unreferenced = set(seg.unreferenced_indices())
        assert referenced | unreferenced == {0, 1, 2}
        assert referenced & unreferenced == set()
        assert 2 in unreferenced

    def test_transitive_weight_orders_by_importance(self):
        seg = _mini_segment()
        influence = seg.transitive_reference_weight()
        assert influence[0] > influence[1] > influence[2]
        assert influence[2] == 0.0

    def test_transitive_weight_includes_indirect_paths(self):
        # B(2) references P(1) with 0.5; P(1) references I(0) with 0.8.
        # I's influence includes the transitive 0.8 * (1 + 0.5) plus the
        # direct 0.2 from B.
        seg = _mini_segment()
        influence = seg.transitive_reference_weight()
        expected_i = 0.2 * (1 + 0.0) + 0.8 * (1 + influence[1])
        assert influence[0] == pytest.approx(expected_i)

    def test_getitem_and_iter(self):
        seg = _mini_segment()
        assert seg[1].ftype is FrameType.P
        assert len(list(seg)) == len(seg) == 3

    def test_frames_round_trip_through_columns(self):
        seg = _mini_segment()
        frames = seg.frames
        assert frames == list(seg) == [seg[i] for i in range(len(seg))]
        assert frames[2] == Frame(
            2, FrameType.B, 200, references=((1, 0.5), (0, 0.2)), motion=0.1
        )
        assert type(frames[2].size) is int and type(frames[2].motion) is float
        assert seg[-1] == frames[2] and seg[1:] == frames[1:]
        with pytest.raises(IndexError):
            seg[3]
        rebuilt = SegmentFrames(frames, duration=0.125, fps=24.0)
        assert rebuilt == seg and rebuilt is not seg

    def test_columns_are_read_only(self):
        seg = _mini_segment()
        with pytest.raises(ValueError):
            seg.sizes[0] = 1
        with pytest.raises(ValueError):
            seg.motion[0] = 1.0

    def test_from_columns_shares_its_inputs(self):
        seg = _mini_segment()
        other = SegmentFrames.from_columns(
            seg.types, [900, 400, 100], seg.references, seg.motion,
            duration=0.125, fps=24.0,
        )
        assert other.types is seg.types
        assert other.references is seg.references
        assert other.motion is seg.motion
        assert other.total_bytes == 1400 and other != seg

    def test_rejects_sizes_out_of_range(self):
        seg = _mini_segment()
        for sizes in ([1000, -1, 200], [1000, 2**31, 200]):
            with pytest.raises(ValueError, match="frame sizes"):
                SegmentFrames.from_columns(
                    seg.types, sizes, seg.references, seg.motion,
                    duration=0.125, fps=24.0,
                )


class TestValidation:
    def test_valid_graph_passes(self):
        validate_reference_graph(_mini_segment().frames)

    def test_i_frame_with_references_fails(self):
        frames = [Frame(0, FrameType.I, 100, references=((0, 0.5),))]
        with pytest.raises(ValueError, match="I-frame"):
            validate_reference_graph(frames)

    def test_p_frame_without_references_fails(self):
        frames = [Frame(0, FrameType.I, 100), Frame(1, FrameType.P, 50)]
        with pytest.raises(ValueError, match="no references"):
            validate_reference_graph(frames)

    def test_self_reference_fails(self):
        frames = [
            Frame(0, FrameType.I, 100),
            Frame(1, FrameType.P, 50, references=((1, 0.5),)),
        ]
        with pytest.raises(ValueError, match="references itself"):
            validate_reference_graph(frames)

    def test_dangling_reference_fails(self):
        frames = [
            Frame(0, FrameType.I, 100),
            Frame(1, FrameType.P, 50, references=((7, 0.5),)),
        ]
        with pytest.raises(ValueError, match="missing frame"):
            validate_reference_graph(frames)

    def test_bad_weight_fails(self):
        frames = [
            Frame(0, FrameType.I, 100),
            Frame(1, FrameType.P, 50, references=((0, 1.5),)),
        ]
        with pytest.raises(ValueError, match="weight"):
            validate_reference_graph(frames)
