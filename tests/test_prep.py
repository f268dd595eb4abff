"""Tests for the offline preparation: orderings, analysis, prepare()."""

import hashlib

import numpy as np
import pytest

from repro.prep.analysis import (
    compute_drop_curve,
    droppable_positions,
    reliable_bytes,
    virtual_levels,
)
from repro.prep.prepare import DEFAULT_ORDERINGS, _choose_curve, prepare
from repro.prep.ranking import (
    Ordering,
    build_order,
    original_order,
    qoe_rank_order,
    reference_rank_order,
    unreferenced_tail_order,
    validate_order,
)
from repro.qoe.model import decode_segment, pristine_score


class TestOrderings:
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_all_orderings_are_permutations(self, segment, ordering):
        order = build_order(segment.frames, ordering)
        validate_order(segment.frames, order)

    def test_original_is_display_order(self, segment):
        order = original_order(segment.frames)
        assert order == list(range(1, len(segment.frames)))

    def test_unreferenced_tail_groups(self, segment):
        order = unreferenced_tail_order(segment.frames)
        referenced = set(segment.frames.referenced_indices())
        n_ref = sum(1 for idx in order if idx in referenced)
        head, tail = order[:n_ref], order[n_ref:]
        assert all(idx in referenced for idx in head)
        assert all(idx not in referenced for idx in tail)

    def test_reference_rank_puts_influential_first(self, segment):
        order = reference_rank_order(segment.frames)
        influence = segment.frames.transitive_reference_weight()
        values = [influence[idx] for idx in order]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_qoe_rank_tail_is_cheap(self, segment):
        """The tail of the QoE ranking should be cheaper to drop than the
        head, as measured by the actual decode model."""
        order = qoe_rank_order(segment.frames)
        head_drop = decode_segment(segment, dropped=order[:5]).score
        tail_drop = decode_segment(segment, dropped=order[-5:]).score
        assert tail_drop > head_drop

    def test_validate_rejects_partial_order(self, segment):
        with pytest.raises(ValueError):
            validate_order(segment.frames, [1, 2, 3])

    def test_validate_rejects_duplicates(self, segment):
        n = len(segment.frames)
        order = list(range(1, n))
        order[0] = order[1]
        with pytest.raises(ValueError):
            validate_order(segment.frames, order)


class TestDropCurve:
    def test_points_monotone(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        drops = [p.dropped for p in curve.points]
        scores = [p.score for p in curve.points]
        sizes = [p.bytes_needed for p in curve.points]
        assert drops == sorted(drops)
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_zero_drop_point_is_full_segment(self, segment):
        curve = compute_drop_curve(segment, Ordering.ORIGINAL)
        first = curve.points[0]
        assert first.dropped == 0
        assert first.bytes_needed == segment.total_bytes
        assert first.score == pytest.approx(pristine_score(segment))

    def test_tolerance_bounds(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        assert 0.0 <= curve.tolerance(0.99) <= 1.0
        assert curve.tolerance(-1.0) == pytest.approx(
            len(curve.order) / len(segment.frames)
        )
        assert curve.tolerance(1.1) == 0.0

    def test_rank_beats_original_order(self, tiny_video):
        """The QoE ranking tolerates at least as many drops as the naive
        decode order (the §4.1 premise)."""
        wins, ties, losses = 0, 0, 0
        for index in range(tiny_video.num_segments):
            seg = tiny_video.segment(12, index)
            ranked = compute_drop_curve(seg, Ordering.QOE_RANK).tolerance(0.99)
            naive = compute_drop_curve(seg, Ordering.ORIGINAL).tolerance(0.99)
            if ranked > naive:
                wins += 1
            elif ranked == naive:
                ties += 1
            else:
                losses += 1
        assert wins + ties > losses
        assert losses <= 1

    def test_bytes_for_score(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        needed = curve.bytes_for_score(0.99)
        assert needed is not None
        assert needed <= segment.total_bytes
        assert curve.bytes_for_score(2.0) is None

    def test_point_for_bytes(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        full = curve.point_for_bytes(segment.total_bytes)
        assert full.dropped == 0
        tiny = curve.point_for_bytes(0)
        assert tiny.dropped == len(curve.order)

    def test_score_for_bytes_monotone(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        budgets = np.linspace(0, segment.total_bytes, 10)
        scores = [curve.score_for_bytes(int(b)) for b in budgets]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


class TestReliableBytes:
    def test_covers_i_frame_and_headers(self, segment):
        expected = segment.frames.i_frame.size + sum(
            f.header_bytes for f in segment.frames if f.index != 0
        )
        assert reliable_bytes(segment) == expected

    def test_fraction_plausible(self, segment):
        frac = reliable_bytes(segment) / segment.total_bytes
        assert 0.08 < frac < 0.3  # I-frame ~15% of bytes plus headers


class TestBestOrdering:
    """§4.1: each rung keeps the ordering that needs the fewest bytes to
    beat the next-lower rung's pristine score."""

    @staticmethod
    def _tail_scores(segment, order):
        """Scores with the last ``k`` frames of ``order`` dropped, every k."""
        n = len(order)
        masks = np.zeros((n + 1, len(segment.frames)), dtype=bool)
        for k in range(1, n + 1):
            masks[k, order[n - k:]] = True
        return decode_segment(segment, dropped=masks).score.tolist()

    def test_choice_minimizes_bytes(self, tiny_video, tiny_prepared):
        # Every entry of quality >= 1 holds the ordering that a linear
        # scan over every drop count finds cheapest; the first wins ties.
        for quality in range(1, len(tiny_video.ladder)):
            for index in range(tiny_video.num_segments):
                segment = tiny_video.segment(quality, index)
                bound = pristine_score(tiny_video.segment(quality - 1, index))
                payloads = segment.frames.payload_sizes()
                best = best_bytes = None
                for ordering in DEFAULT_ORDERINGS:
                    order = build_order(segment.frames, ordering)
                    scores = self._tail_scores(segment, order)
                    drops = 0
                    while drops < len(order) and scores[drops + 1] >= bound:
                        drops += 1
                    kept = order[:len(order) - drops]
                    needed = reliable_bytes(segment) + int(
                        payloads[kept].sum()
                    )
                    if best_bytes is None or needed < best_bytes:
                        best, best_bytes = ordering, needed
                entry = tiny_prepared.manifest.entry(quality, index)
                assert entry.ordering == best, (quality, index)

    def test_unreachable_bound_falls_back_to_full(self, segment):
        orders = [
            build_order(segment.frames, ordering)
            for ordering in DEFAULT_ORDERINGS
        ]
        scores = [self._tail_scores(segment, order) for order in orders]
        curve = _choose_curve(segment, 1.5, DEFAULT_ORDERINGS, orders, scores)
        assert curve.ordering == DEFAULT_ORDERINGS[0]
        assert curve.bytes_for_score(1.5) is None
        assert curve.points[0].bytes_needed == segment.total_bytes


class TestVirtualLevels:
    def test_thinning_and_bounds(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        bound = 0.98
        points = virtual_levels(curve, bound, min_score_step=0.002)
        assert points, "at least the pristine point must survive"
        scores = [p.score for p in points]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= bound for s in scores)
        for a, b in zip(scores, scores[1:]):
            assert a - b >= 0.002 - 1e-12

    def test_unreachable_bound_keeps_pristine(self, segment):
        curve = compute_drop_curve(segment, Ordering.QOE_RANK)
        points = virtual_levels(curve, 1.5)
        assert len(points) == 1
        assert points[0].dropped == 0


class TestDroppablePositions:
    def test_positions_within_segment(self, segment):
        positions = droppable_positions(segment, target_score=0.9)
        assert all(0 < p < len(segment.frames) for p in positions)

    def test_strict_target_shrinks_set(self, segment):
        loose = set(droppable_positions(segment, target_score=0.5))
        strict = set(droppable_positions(segment, target_score=0.999,
                                         max_score_delta=0.0005))
        assert strict <= loose


class TestPrepare:
    def test_structure(self, tiny_prepared):
        manifest = tiny_prepared.manifest
        assert manifest.num_levels == 13
        assert manifest.num_segments == 6
        for quality in range(13):
            for index in range(6):
                entry = manifest.entry(quality, index)
                assert entry.quality == quality
                assert entry.index == index
                assert entry.quality_points
                assert entry.reliable_size > 0
                assert entry.reliable_size < entry.total_bytes

    def test_media_ranges_contiguous(self, tiny_prepared):
        for rep in tiny_prepared.manifest.representations:
            offset = 0
            for entry in rep.segments:
                assert entry.media_range[0] == offset
                offset = entry.media_range[1]

    def test_quality_points_sorted_and_bounded(self, tiny_prepared):
        for rep in tiny_prepared.manifest.representations:
            for entry in rep.segments:
                scores = [p.score for p in entry.quality_points]
                assert scores == sorted(scores, reverse=True)
                sizes = [p.bytes for p in entry.quality_points]
                assert all(s <= entry.total_bytes for s in sizes)
                assert max(sizes) == entry.quality_points[0].bytes

    def test_virtual_levels_respect_lower_bound(self, tiny_prepared, tiny_video):
        """Every advertised point at Qn scores above pristine Qn-1."""
        for quality in range(1, 13):
            for index in range(tiny_video.num_segments):
                entry = tiny_prepared.manifest.entry(quality, index)
                bound = pristine_score(tiny_video.segment(quality - 1, index))
                for point in entry.quality_points:
                    assert point.score >= round(bound, 4) - 5e-4

    def test_unreliable_ranges_cover_all_payloads(self, tiny_prepared):
        entry = tiny_prepared.manifest.entry(12, 0)
        segment = tiny_prepared.video.segment(12, 0)
        total_payload = sum(
            f.payload_bytes for f in segment.frames if f.index != 0
        )
        covered = sum(e - s for s, e in entry.unreliable_ranges)
        assert covered == total_payload

    def test_frame_order_matches_unreliable_ranges(self, tiny_prepared):
        entry = tiny_prepared.manifest.entry(9, 2)
        assert len(entry.frame_order) == len(entry.unreliable_ranges)

    def test_prepared_segments_accessible(self, tiny_prepared):
        ps = tiny_prepared.prepared_segment(12, 0)
        assert ps.entry.quality == 12
        assert ps.curve.points


def _curve_digest(prepared) -> str:
    """sha256 over every PreparedSegment's ordering, order and points."""
    digest = hashlib.sha256()
    for level in prepared.prepared:
        for ps in level:
            digest.update(
                f"{ps.ordering.value}|{list(ps.curve.order)}".encode()
            )
            for p in ps.curve.points:
                digest.update(
                    f"|{p.dropped},{p.frames_delivered},{p.bytes_needed},"
                    f"{float.hex(p.score)}".encode()
                )
            digest.update(b"\n")
    return digest.hexdigest()


class TestPrepGoldens:
    """Prep output, byte for byte.  The manifest does not serialize the
    drop curves, so their points are pinned by a digest of their own."""

    GOLDENS = {
        "tinytest": (
            "1964f55152f5ed33463cb22075c0717106c0a30d643539214c9be07e48a7fc47",
            "98a55c03dfe326b91b6ddabea72739c4926f76b0a6a3e637109593057649b1df",
        ),
        # The manifest digest equals perfbench's ``bbb`` golden.
        "bbb": (
            "45b942cd29ed086c14b162b41b7cd783dbfdb9758eb6837ba17f1404f7c2abc0",
            "9d09dc0262731d9ad18a07e85c2b37f2315ce9f41e4b80d1775da831f02dbdb8",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_manifest_and_curves(self, name, tiny_prepared):
        from repro.prep.prepare import get_prepared

        prepared = tiny_prepared if name == "tinytest" else get_prepared(name)
        manifest = hashlib.sha256(
            prepared.manifest.serialize().encode("utf-8")
        ).hexdigest()
        assert (manifest, _curve_digest(prepared)) == self.GOLDENS[name]


def test_prep_package_keeps_the_module_name():
    import repro.prep.prepare as module

    from repro.prep import get_prepared

    assert module.get_prepared is get_prepared
