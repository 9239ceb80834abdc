import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devoc import structural
from devoc.raster import EmptyImageError
from devoc.structural import (
    InconsistentInputsError,
    ShirorekhaKind,
    ShirorekhaResult,
    SpineKind,
    StructuralClass,
    StructuralConfig,
    Termination,
)


def canvas(*pixel_runs):
    """100x100 skeleton from (row_slice, col_slice) stroke runs."""
    img = np.zeros((100, 100), dtype=bool)
    for rows, cols in pixel_runs:
        img[rows, cols] = True
    return img


FULL_HEADLINE = (2, slice(0, 100))
END_SPINE = (slice(2, 100), 99)
MID_SPINE = (slice(2, 100), 55)


class TestTrace:
    def test_straight_line_walks_fully(self):
        img = canvas((5, slice(10, 91)))
        trace = structural.trace_from_rightmost(img, max_consecutive_up=2)
        assert len(trace.points) == 81
        assert trace.points[0] == (5, 90)
        assert trace.points[-1] == (5, 10)
        assert trace.termination == Termination.OPEN_END

    def test_single_pixel_is_no_move(self):
        img = canvas((40, 40))
        trace = structural.trace_from_rightmost(img, max_consecutive_up=2)
        assert trace.points == ((40, 40),)
        assert trace.termination == Termination.NO_MOVE

    def test_empty_raises(self):
        with pytest.raises(EmptyImageError):
            structural.trace_from_rightmost(np.zeros((10, 10), dtype=bool), max_consecutive_up=2)

    def test_antidiagonal_descends_by_sw(self):
        img = np.zeros((100, 100), dtype=bool)
        for i in range(100):
            img[i, 99 - i] = True
        trace = structural.trace_from_rightmost(img, max_consecutive_up=2)
        assert len(trace.points) == 100
        assert trace.termination == Termination.OPEN_END
        # strictly one column left per step
        cols = [c for _, c in trace.points]
        assert cols == list(range(99, -1, -1))

    def test_ring_terminates_as_loop(self):
        img = canvas(
            (10, slice(10, 21)),
            (20, slice(10, 21)),
            (slice(10, 21), 10),
            (slice(10, 21), 20),
        )
        trace = structural.trace_from_rightmost(img, max_consecutive_up=2)
        assert trace.termination == Termination.LOOP

    def test_start_is_topmost_of_rightmost_column(self):
        img = canvas((slice(30, 50), 80))
        trace = structural.trace_from_rightmost(img, max_consecutive_up=2)
        assert trace.points[0] == (30, 80)

    def test_consecutive_up_limit(self):
        img = np.zeros((100, 100), dtype=bool)
        for p in [(10, 99), (10, 98), (9, 98), (8, 98), (7, 98)]:
            img[p] = True
        short = structural.trace_from_rightmost(img, max_consecutive_up=2)
        assert len(short.points) == 4  # third straight-up move is blocked
        full = structural.trace_from_rightmost(img, max_consecutive_up=3)
        assert len(full.points) == 5

    def test_column_never_increases(self):
        rng = np.random.default_rng(11)
        from conftest import random_skeleton

        for _ in range(20):
            skel = random_skeleton(rng)
            if not skel.any():
                continue
            trace = structural.trace_from_rightmost(skel, 100)
            cols = [c for _, c in trace.points]
            assert all(b <= a for a, b in zip(cols, cols[1:]))


class TestStraightness:
    def test_constant_is_straight(self):
        rep = structural.straightness([3, 3, 3, 3], 2, 0)
        assert rep.is_near_straight and rep.max_step == 0 and rep.drift == 0

    def test_small_wiggle_within_both_tolerances(self):
        rep = structural.straightness([3, 4, 3, 2, 3], 1, 2)
        assert rep.is_near_straight and rep.max_step == 1 and rep.drift == 2

    def test_step_violation(self):
        assert not structural.straightness([0, 3], 2, 5).is_near_straight

    def test_drift_violation_with_small_steps(self):
        # gentle but persistent slope: every step passes, the drift fails
        assert not structural.straightness(list(range(10)), 2, 5).is_near_straight

    def test_singleton_is_straight(self):
        rep = structural.straightness([7], 0, 0)
        assert rep.is_near_straight and rep.max_step == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            structural.straightness([], 2, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=12), st.integers(0, 4), st.integers(0, 9))
    def test_matches_brute_force_oracle(self, values, step_tol, drift_tol):
        expect_step = max((abs(values[i + 1] - values[i]) for i in range(len(values) - 1)), default=0)
        expect = expect_step <= step_tol and (max(values) - min(values)) <= drift_tol
        assert structural.straightness(values, step_tol, drift_tol).is_near_straight == expect


class TestTopSegment:
    def test_contiguous_columns(self):
        pts = [(5, c) for c in range(10, 20)]
        heights, span = structural._trace_top_segment(pts, 2)
        assert heights == [5] * 10 and span == 10

    def test_gap_within_tolerance_is_interpolated(self):
        pts = [(5, 10), (5, 11), (8, 14), (8, 15)]
        heights, span = structural._trace_top_segment(pts, 2)
        assert span == 6
        assert heights == [8, 8, 7, 6, 5, 5]

    def test_gap_beyond_tolerance_ends_segment(self):
        pts = [(5, 10), (5, 11), (5, 15), (5, 16)]
        heights, span = structural._trace_top_segment(pts, 2)
        assert span == 2  # only cols 15..16 before the 3-wide gap


class TestShirorekha:
    def test_full_headline(self):
        res = structural.detect_shirorekha(canvas(FULL_HEADLINE))
        assert res.kind == ShirorekhaKind.FULL
        assert res.span_ratio == 1.0
        assert res.trace is not None and res.trace.termination == Termination.OPEN_END

    def test_partial_headline(self):
        res = structural.detect_shirorekha(canvas((2, slice(60, 100))))
        assert res.kind == ShirorekhaKind.PARTIAL
        assert res.span_ratio == pytest.approx(0.40)

    def test_short_top_stroke_is_not_a_headline(self):
        res = structural.detect_shirorekha(canvas((2, slice(80, 100))))
        assert res.kind == ShirorekhaKind.NONE

    def test_loop_rejected(self):
        img = canvas(
            (10, slice(5, 96)),
            (20, slice(5, 96)),
            (slice(10, 21), 5),
            (slice(10, 21), 95),
        )
        res = structural.detect_shirorekha(img)
        assert res.kind == ShirorekhaKind.NONE

    def test_diagonal_rejected_by_drift(self):
        img = np.zeros((100, 100), dtype=bool)
        for i in range(100):
            img[i, i] = True
        assert structural.detect_shirorekha(img).kind == ShirorekhaKind.NONE

    def test_gentle_dip_still_full(self):
        img = np.zeros((100, 100), dtype=bool)
        img[2, :40] = True
        img[3, 39:61] = True
        img[2, 60:] = True
        assert structural.detect_shirorekha(img).kind == ShirorekhaKind.FULL

    def test_broken_headline_spans_only_right_piece(self):
        img = canvas((2, slice(0, 50)), (2, slice(53, 100)))
        res = structural.detect_shirorekha(img)
        assert res.kind == ShirorekhaKind.PARTIAL
        assert res.span_ratio == pytest.approx(0.47)

    def test_headline_reached_from_leaning_spine_tip(self):
        # the rightmost pixel sits partway down the spine; the trace must
        # climb it and the climb must not count against straightness
        img = canvas(FULL_HEADLINE, END_SPINE)
        res = structural.detect_shirorekha(img)
        assert res.kind == ShirorekhaKind.FULL
        # the stored trace is the headline only: every point near the top
        assert max(r for r, _ in res.trace.points) <= 4


class TestSpines:
    def test_end_spine(self):
        img = canvas(FULL_HEADLINE, END_SPINE)
        shiro = structural.detect_shirorekha(img)
        res = structural.detect_spines(img, shiro)
        assert res.kind == SpineKind.END
        assert res.spine_col == 99 and res.matra_col is None

    def test_mid_spine_with_right_mass(self):
        img = canvas(FULL_HEADLINE, MID_SPINE, (60, slice(60, 91)))
        shiro = structural.detect_shirorekha(img)
        res = structural.detect_spines(img, shiro)
        assert res.kind == SpineKind.MID
        assert res.spine_col == 55

    def test_mid_spine_without_right_mass_is_end(self):
        # nothing to the right of the bar except the headline band
        img = canvas(FULL_HEADLINE, MID_SPINE)
        shiro = structural.detect_shirorekha(img)
        assert structural.detect_spines(img, shiro).kind == SpineKind.END

    def test_two_bars_rightmost_is_matra(self):
        img = canvas(FULL_HEADLINE, MID_SPINE, END_SPINE)
        shiro = structural.detect_shirorekha(img)
        res = structural.detect_spines(img, shiro)
        assert res.matra_col == 99
        assert res.spine_col == 55
        assert res.kind == SpineKind.END  # bars themselves are excluded mass

    def test_three_bars_sets_too_many(self):
        img = canvas(FULL_HEADLINE, (slice(2, 100), 20), MID_SPINE, END_SPINE)
        shiro = structural.detect_shirorekha(img)
        res = structural.detect_spines(img, shiro)
        assert res.too_many
        assert res.matra_col == 99 and res.spine_col == 55

    def test_no_shirorekha_means_no_spine(self):
        img = canvas(END_SPINE)
        none = ShirorekhaResult(ShirorekhaKind.NONE, None, 0.0)
        assert structural.detect_spines(img, none).kind == SpineKind.NONE

    def test_three_quarter_height_threshold(self):
        tall = canvas(FULL_HEADLINE, (slice(24, 99), 99))  # 75 rows: exactly enough
        short = canvas(FULL_HEADLINE, (slice(26, 100), 99))  # 74 rows: one too few
        assert (
            structural.detect_spines(tall, structural.detect_shirorekha(tall)).kind
            == SpineKind.END
        )
        assert (
            structural.detect_spines(short, structural.detect_shirorekha(short)).kind
            == SpineKind.NONE
        )

    def test_slanted_bar_rejected_by_drift(self):
        img = canvas(FULL_HEADLINE)
        # full-height stroke drifting 40 columns: steps fine, drift not
        from devoc.synth import _bresenham

        for r, c in _bresenham(4, 20, 99, 60):
            img[r, c] = True
        res = structural.detect_spines(img, structural.detect_shirorekha(img))
        assert res.kind == SpineKind.NONE

    def test_empty_raises(self):
        none = ShirorekhaResult(ShirorekhaKind.NONE, None, 0.0)
        with pytest.raises(EmptyImageError):
            structural.detect_spines(np.zeros((100, 100), dtype=bool), none)


class TestGrouping:
    def test_all_seven_groups_round_trip(self):
        groups = {StructuralClass(ShirorekhaKind.NONE, SpineKind.NONE)}
        groups.update(StructuralClass(s, p) for s in (ShirorekhaKind.FULL, ShirorekhaKind.PARTIAL) for p in SpineKind)
        assert len(groups) == 7
        for sc in groups:
            assert structural.parse_group_name(structural.group_name(sc)) == sc

    def test_inconsistent_class_rejected(self):
        with pytest.raises(InconsistentInputsError):
            StructuralClass(ShirorekhaKind.NONE, SpineKind.END)

    def test_parse_rejects_garbage_and_inconsistent(self):
        for name in ("nope", "full", "none_end", "full_mid_extra", ""):
            with pytest.raises(ValueError):
                structural.parse_group_name(name)

    def test_detectors_combine_into_group(self):
        img = canvas(FULL_HEADLINE, MID_SPINE, (60, slice(60, 91)))
        shiro = structural.detect_shirorekha(img)
        spine = structural.detect_spines(img, shiro)
        sc = StructuralClass(shiro.kind, spine.kind)
        assert structural.group_name(sc) == "full_mid"


class TestConfig:
    def test_drift_tolerance_tracks_length(self):
        cfg = StructuralConfig()
        # the detector derives drift_tol = ceil(frac * length); check the
        # arithmetic the detectors rely on
        assert math.ceil(cfg.drift_tol_frac * 100) == 10
        assert math.ceil(cfg.drift_tol_frac * 5) == 1

    def test_defaults(self):
        cfg = StructuralConfig()
        assert cfg.step_tol == 2
        assert cfg.full_span == 0.85 and cfg.partial_span == 0.25
        assert cfg.spine_height_frac == 0.75
