"""Guard rails for the raw-speed campaign.

Three families of checks keep the fast paths honest:

* Trace memoization — ``get_trace`` returns the same object on a cache
  hit, a bypassed build is value-identical to the cached one, and the
  bypass never populates the cache.
* ``__slots__`` lint — every hot-path record type stays slotted (a
  teammate adding a plain dataclass field silently reintroduces a
  per-instance ``__dict__`` and the memory/speed regression with it).
* Vectorized QoE — the numpy decode pipeline must equal the scalar
  reference bit for bit on randomized ladders and loss patterns, and
  the fleet merge must stay byte-identical at any worker count.
* Per-object caches — a segment's decode context, a manifest entry's
  wire layout and a prepared video's BETA levels belong to that object,
  even when a freed object's address is reused by the next allocation.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.traces import clear_trace_cache, get_trace
from repro.prep.prepare import prepare
from repro.qoe.model import decode_segment, decode_segment_scalar
from repro.video.content import ContentProfile
from repro.video.encoder import encode_video
from repro.video.ladder import QualityLevel


# ---------------------------------------------------------------------------
# Satellite: synthetic-trace memoization.
# ---------------------------------------------------------------------------
class TestTraceMemo:
    def test_cache_hit_returns_same_object(self):
        clear_trace_cache()
        first = get_trace("verizon", seed=3)
        second = get_trace("verizon", seed=3)
        assert second is first

    def test_bypass_is_value_identical_to_cached(self):
        clear_trace_cache()
        for name, kwargs in (
            ("verizon", {"seed": 3}),
            ("tmobile", {"seed": 9}),
            ("constant:12.5", {}),
            ("step", {}),
            ("wild", {"seed": 5}),
        ):
            cached = get_trace(name, **kwargs)
            fresh = get_trace(name, use_cache=False, **kwargs)
            assert fresh is not cached
            assert fresh.name == cached.name
            assert fresh.shift_s == cached.shift_s
            assert np.array_equal(fresh.samples_mbps, cached.samples_mbps)
            # Same lookups, not just same samples.
            for t in (0.0, 1.5, 17.0, 123.456):
                assert fresh.bandwidth_mbps(t) == cached.bandwidth_mbps(t)

    def test_bypass_does_not_populate_cache(self):
        clear_trace_cache()
        a = get_trace("verizon", seed=41, use_cache=False)
        b = get_trace("verizon", seed=41, use_cache=False)
        assert a is not b
        # The first cached call builds a third instance: nothing was
        # stored by the bypassed builds.
        c = get_trace("verizon", seed=41)
        assert c is not a and c is not b
        assert get_trace("verizon", seed=41) is c

    def test_distinct_params_are_distinct_entries(self):
        clear_trace_cache()
        assert get_trace("verizon", seed=1) is not get_trace("verizon", seed=2)
        assert get_trace("constant:10") is not get_trace("constant:20")


# ---------------------------------------------------------------------------
# Satellite: __slots__ lint over the hot event/record types.
# ---------------------------------------------------------------------------
# One entry per hot-path class.  Keep this list in sync when a new type
# joins a per-round or per-event path; the test fails if any of them
# (or any base) grows a per-instance __dict__ back.
HOT_SLOTTED_CLASSES = [
    ("repro.obs.events", "TraceEvent"),
    ("repro.network.events", "Waiter"),
    ("repro.transport.base", "DownloadResult"),
    ("repro.transport.http", "SegmentDelivery"),
    ("repro.transport.resilience", "RetryContext"),
    ("repro.transport.cubic", "CubicState"),
    ("repro.abr.base", "ControlAction"),
    ("repro.abr.base", "Decision"),
    ("repro.abr.base", "DownloadProgress"),
    ("repro.abr.base", "DecisionContext"),
    ("repro.abr.bola", "Candidate"),
    ("repro.player.metrics", "SegmentRecord"),
    ("repro.player.session", "_PendingRepair"),
    ("repro.player.buffer", "PlaybackBuffer"),
    ("repro.video.frames", "Frame"),
]


class TestPerObjectCaches:
    """Free one object, allocate another of the same type: CPython
    hands the new object the freed address, so a cache keyed by
    ``id()`` alone would serve the old object's entry."""

    @staticmethod
    def _reuse(make_first, make_second, warm):
        """The second object, made where a warmed first one was freed.

        Skips the test when the allocator never hands out the freed
        address: no stale entry was offered, so a pass would mean
        nothing.
        """
        for _ in range(200):
            first = make_first()
            warm(first)
            address = id(first)
            del first
            second = make_second()
            if id(second) == address:
                return second
        pytest.skip(
            "the second object never took the freed first one's "
            "address in 200 tries"
        )

    def test_decode_context_follows_its_frames(self, tiny_video):
        from repro.qoe.model import _context
        from repro.video.frames import SegmentFrames

        def copy_of(source):
            # Allocated before its arguments are bound: a call's argument
            # tuple has a SegmentFrames' size and, once the tuple free
            # list runs dry, would take the freed address first.
            built = SegmentFrames.__new__(SegmentFrames)
            built.__init__(list(source.frames), source.duration, source.fps)
            return built

        a = tiny_video.segment(12, 0).frames
        b = tiny_video.segment(0, 1).frames
        second = self._reuse(lambda: copy_of(a), lambda: copy_of(b), _context)
        # The two segments' motion differs, so a context served to the
        # wrong frames fails this.
        assert _context(second).motion.tolist() == [f.motion for f in b]

    def test_wire_layout_follows_its_entry(self, tiny_prepared):
        from dataclasses import replace

        from repro.transport.http import _wire_layout

        a = tiny_prepared.manifest.entry(12, 0)
        b = tiny_prepared.manifest.entry(0, 1)
        second = self._reuse(
            lambda: replace(a), lambda: replace(b), _wire_layout
        )
        sizes, cumulative = _wire_layout(second)
        assert sizes == [end - start for start, end in b.unreliable_ranges]
        assert cumulative[-1] == sum(sizes)

    def test_beta_levels_follow_their_prepared_video(self, tiny_prepared):
        from dataclasses import replace

        from repro.abr.beta import BetaABR
        from repro.qoe.model import QoEParams

        params = QoEParams(freeze_cost=0.4)
        second = self._reuse(
            lambda: replace(tiny_prepared),
            lambda: replace(tiny_prepared, params=params),
            lambda prepared: BetaABR(prepared)._level(12, 0),
        )
        level = BetaABR(second)._level(12, 0)
        # The first video's level scores the drop under other params,
        # so a level served to the wrong video fails this.
        assert level.bdrop_score == decode_segment(
            second.video.segment(12, 0), params=params,
            dropped=list(level.bdrop_frames),
        ).score


class TestSlotsLint:
    @pytest.mark.parametrize("modname,clsname", HOT_SLOTTED_CLASSES)
    def test_hot_class_is_fully_slotted(self, modname, clsname):
        cls = getattr(importlib.import_module(modname), clsname)
        assert "__slots__" in cls.__dict__, (
            f"{modname}.{clsname} lost its __slots__ declaration"
        )
        for base in cls.__mro__[:-1]:  # everything below object
            assert "__slots__" in base.__dict__, (
                f"{modname}.{clsname}: base {base.__name__} is unslotted, "
                "so instances still carry a __dict__"
            )


# ---------------------------------------------------------------------------
# Satellite: vectorized QoE == scalar reference, bit for bit.
# ---------------------------------------------------------------------------
_SHORT_LADDER = [
    QualityLevel(0, (426, 240), 0.3),
    QualityLevel(1, (854, 480), 1.0),
    QualityLevel(2, (1920, 1080), 4.0),
    QualityLevel(3, (3840, 2160), 9.0),
]
_UNEVEN_LADDER = [
    QualityLevel(0, (256, 144), 0.12),
    QualityLevel(1, (426, 240), 0.2),
    QualityLevel(2, (640, 360), 0.9),
    QualityLevel(3, (1280, 720), 2.8),
    QualityLevel(4, (1920, 1080), 5.5),
    QualityLevel(5, (2560, 1440), 8.1),
]

_QOE_PROFILE = ContentProfile(
    name="qoeprop",
    title="QoE Property Video",
    genre="Test",
    segments=2,
    motion_mean=0.55,
    motion_spread=0.25,
    complexity=0.6,
    scene_cut_rate=1.5,
    size_std_mbps=2.0,
    static_fraction=0.1,
)


@pytest.fixture(scope="module", params=["paper", "short", "uneven"])
def ladder_video(request):
    ladder = {
        "paper": None,
        "short": _SHORT_LADDER,
        "uneven": _UNEVEN_LADDER,
    }[request.param]
    return encode_video(_QOE_PROFILE, ladder=ladder)


@st.composite
def _loss_pattern(draw):
    """Random (dropped, corruption, rate_ratio) against a 96-frame segment."""
    n = 96
    dropped = draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            max_size=24, unique=True,
        )
    )
    corrupt_idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            max_size=16, unique=True,
        )
    )
    fracs = draw(
        st.lists(
            st.floats(min_value=-0.2, max_value=1.3, allow_nan=False),
            min_size=len(corrupt_idx), max_size=len(corrupt_idx),
        )
    )
    rate_ratio = draw(
        st.one_of(
            st.none(),
            st.floats(min_value=1.0, max_value=60.0, allow_nan=False),
        )
    )
    return dropped, dict(zip(corrupt_idx, fracs)), rate_ratio


class TestVectorizedQoEEquality:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=_loss_pattern(),
        quality_pick=st.integers(min_value=0, max_value=10 ** 6),
        segment_pick=st.integers(min_value=0, max_value=1),
    )
    def test_bit_identical_on_randomized_ladders(
        self, ladder_video, data, quality_pick, segment_pick
    ):
        dropped, corruption, rate_ratio = data
        quality = quality_pick % ladder_video.num_levels
        segment = ladder_video.segment(quality, segment_pick)

        fast = decode_segment(
            segment, dropped=dropped, corruption=corruption,
            rate_ratio=rate_ratio,
        )
        slow = decode_segment_scalar(
            segment, dropped=dropped, corruption=corruption,
            rate_ratio=rate_ratio,
        )
        # Exact equality: same floats, same order of operations.
        assert np.array_equal(fast.frame_scores, slow.frame_scores)
        assert fast.score == slow.score
        assert fast.delivered_frames == slow.delivered_frames
        assert fast.distortion == slow.distortion

    def test_clean_decode_bit_identical(self, ladder_video):
        top = ladder_video.num_levels - 1
        segment = ladder_video.segment(top, 0)
        fast = decode_segment(segment)
        slow = decode_segment_scalar(segment)
        assert np.array_equal(fast.frame_scores, slow.frame_scores)
        assert fast.score == slow.score


@st.composite
def _drop_masks(draw):
    """A K x 96 drop-only batch: clean, random and all-dropped rows."""
    n = 96
    densities = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                 max_size=10)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.random((len(densities), n)) < np.array(densities)[:, None]
    masks = np.vstack([np.zeros(n, bool), rows, np.ones(n, bool)])
    masks[:, 0] = False  # the I-frame is never dropped
    rate_ratio = draw(
        st.one_of(
            st.none(),
            st.floats(min_value=1.0, max_value=60.0, allow_nan=False),
        )
    )
    return masks, rate_ratio


def _assert_rows_match_scalar(segment, masks, result, rate_ratio=None):
    """Every batch row equals the scalar decode of that row, exactly."""
    assert result.frame_scores.shape == masks.shape
    for row, mask in enumerate(masks):
        slow = decode_segment_scalar(
            segment, dropped=np.flatnonzero(mask).tolist(),
            rate_ratio=rate_ratio,
        )
        assert np.array_equal(result.frame_scores[row], slow.frame_scores)
        assert result.score[row] == slow.score
        assert result.delivered_frames[row] == slow.delivered_frames
        assert result.distortion[row] == slow.distortion


class TestBatchDecodeEquality:
    """A K x n drop-mask batch decodes each row exactly as one delivery."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=_drop_masks(),
        quality_pick=st.integers(min_value=0, max_value=10 ** 6),
        segment_pick=st.integers(min_value=0, max_value=1),
    )
    def test_rows_bit_identical_to_scalar(
        self, ladder_video, data, quality_pick, segment_pick
    ):
        masks, rate_ratio = data
        segment = ladder_video.segment(
            quality_pick % ladder_video.num_levels, segment_pick
        )
        # Row means depend on memory order; every layout must give the
        # per-row values.
        for layout in (masks, np.asfortranarray(masks), masks[::-1]):
            result = decode_segment(
                segment, dropped=layout, rate_ratio=rate_ratio
            )
            _assert_rows_match_scalar(segment, layout, result, rate_ratio)

    def test_wide_levels_match_scalar(self, segment):
        """Levels wider than four frames (one gather in both bodies; the
        encoder's GOP never builds them) decode like the oracle."""
        from dataclasses import replace

        from repro.video.frames import Frame, FrameType, SegmentFrames

        rng = np.random.default_rng(3)
        frames = [Frame(0, FrameType.I, 5000, (), 0.3)]
        for idx in range(1, 40):
            refs = ((0, 0.7),) if idx <= 12 else (
                (idx - 1, 0.6), (int(rng.integers(0, idx - 1)), 0.3)
            )
            frames.append(
                Frame(idx, FrameType.P, 1000, refs, float(rng.random()))
            )
        wide = replace(
            segment, frames=SegmentFrames(frames, 40 / 24, 24.0)
        )
        masks = rng.random((20, 40)) < rng.random((20, 1))
        masks[:, 0] = False
        _assert_rows_match_scalar(
            wide, masks, decode_segment(wide, dropped=masks)
        )
        for mask in masks:
            dropped = np.flatnonzero(mask).tolist()
            one = decode_segment(wide, dropped=dropped)
            slow = decode_segment_scalar(wide, dropped=dropped)
            assert np.array_equal(one.frame_scores, slow.frame_scores)
            assert one.score == slow.score

    def test_i_frame_column_rejected(self, segment):
        masks = np.zeros((3, len(segment.frames)), dtype=bool)
        masks[1, 0] = True
        with pytest.raises(ValueError, match="I-frame"):
            decode_segment(segment, dropped=masks)

    def test_corruption_rejected(self, segment):
        masks = np.zeros((2, len(segment.frames)), dtype=bool)
        with pytest.raises(ValueError):
            decode_segment(segment, dropped=masks, corruption={3: 0.5})

    def test_same_mask_on_two_structures(self, tiny_video):
        """The damage memo never serves one structure's damage to another."""
        first = tiny_video.segment(12, 0)
        second = tiny_video.segment(12, 1)
        assert [f.motion for f in first.frames] != \
            [f.motion for f in second.frames]
        rng = np.random.default_rng(7)
        masks = rng.random((6, len(first.frames))) < 0.3
        masks[:, 0] = False
        for segment in (first, second, first):
            result = decode_segment(segment, dropped=masks)
            _assert_rows_match_scalar(segment, masks, result)

    def test_mask_mutated_in_place(self, segment):
        """The memo keys on the mask's content, not on the array object."""
        masks = np.zeros((4, len(segment.frames)), dtype=bool)
        masks[1, 40:] = True
        decode_segment(segment, dropped=masks)
        masks[2, 5:30] = True
        masks[1, 60] = False
        result = decode_segment(segment, dropped=masks)
        _assert_rows_match_scalar(segment, masks, result)


class TestSharedDecodeContexts:
    """Prep gives all rungs of a segment with one reference structure one
    decode context, and compares the structure instead of assuming it."""

    def test_rungs_share_one_context(self, tiny_prepared):
        from repro.qoe.model import _context

        video = tiny_prepared.video
        for index in range(video.num_segments):
            shared = _context(video.segment(0, index).frames)
            for quality in range(video.num_levels):
                assert _context(video.segment(quality, index).frames) \
                    is shared

    def test_changed_structure_gets_its_own_context(self, tiny_video):
        from dataclasses import replace

        from repro.prep.analysis import compute_drop_curve
        from repro.qoe.model import _context
        from repro.video.encoder import EncodedSegment, EncodedVideo
        from repro.video.frames import SegmentFrames

        def rebuilt(segment, frames):
            return EncodedSegment(
                video=segment.video, index=segment.index,
                quality=segment.quality, content=segment.content,
                frames=SegmentFrames(
                    frames, segment.frames.duration, segment.frames.fps
                ),
            )

        rungs = [tiny_video.segment(q, 0) for q in range(13)]
        changed = list(rungs[5].frames)
        changed[10] = replace(changed[10], motion=changed[10].motion + 0.2)
        segments = [
            [rebuilt(seg, changed if seg.quality == 5 else list(seg.frames))]
            for seg in rungs
        ]
        video = EncodedVideo(
            profile=tiny_video.profile, ladder=tiny_video.ladder,
            segments=segments,
        )
        prepared = prepare(video)

        contexts = [_context(video.segment(q, 0).frames) for q in range(13)]
        assert all(ctx is contexts[0] for q, ctx in enumerate(contexts)
                   if q != 5)
        assert contexts[5] is not contexts[0]
        assert contexts[5].motion[10] == changed[10].motion

        curve = prepared.prepared_segment(5, 0).curve
        fresh = compute_drop_curve(video.segment(5, 0), curve.ordering)
        assert curve.order == fresh.order
        assert curve.points == fresh.points


class TestRetainedFootprint:
    """A prepared video keeps a few objects the garbage collector tracks
    per (segment, quality), not one per frame or curve point: every
    tracked object lengthens each later full collection of a process
    that keeps its videos."""

    @staticmethod
    def _tracked_reachable(root) -> int:
        import gc
        import types

        gc.collect()  # untracks tuples of plain numbers
        seen = set()
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or not gc.is_tracked(obj) or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)
            ):
                continue
            seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
        return len(seen)

    def test_prepared_video_tracks_few_objects(self, tiny_video):
        # A fresh encode: no other test's memos hang off its objects.
        video = encode_video(tiny_video.profile)
        prepared = prepare(video)
        cells = video.num_segments * video.num_levels
        # Measured: 2.7 per cell for the encode and 16 for the prepared
        # video; a Frame per frame made it 103 and 171.
        assert self._tracked_reachable(video) <= 4 * cells
        assert self._tracked_reachable(prepared) <= 24 * cells


# ---------------------------------------------------------------------------
# Satellite: worker-count byte-identity over the refactored hot path.
# ---------------------------------------------------------------------------
class TestWorkerByteIdentity:
    def test_fleet_workers_1_vs_4_byte_identical(self, tiny_prepared):
        from repro.experiments.fleet import ClientGroup, FleetSpec, run_fleet

        groups = tuple(
            ClientGroup(abr=abr, video=tiny_prepared.name,
                        partially_reliable=pr)
            for abr, pr in (("abr_star", True), ("bola", False))
        )
        spec = FleetSpec(
            clients=8, shards=4, groups=groups, trace="constant:40",
            seed=11,
        )
        prepared = {tiny_prepared.name: tiny_prepared}
        serial = run_fleet(spec, workers=1, prepared_map=prepared)
        parallel = run_fleet(spec, workers=4, prepared_map=prepared)
        assert json.dumps(serial.report(), sort_keys=True) == \
            json.dumps(parallel.report(), sort_keys=True)
        assert serial.fleet_hash() == parallel.fleet_hash()
