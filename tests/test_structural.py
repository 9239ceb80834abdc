import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from devoc import pipeline, raster, structural, synth
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

from conftest import brute_neighbor_count, random_skeleton


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
        # one N move in column 14, past the leading climb: that column's top is the upper point
        pts = tuple((6, c) for c in range(19, 13, -1)) + tuple((5, c) for c in range(14, 9, -1))
        points, heights = structural._headline_tops(structural.Trace(pts, Termination.OPEN_END), 2)
        assert points == pts and heights == [6] * 5 + [5] * 5


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


# The oracles below are the per-point spine search, spine location,
# headline trace and shirorekha detection: every top walked with an on-path
# check, masks built one slice per pixel, moves bounds-checked with a
# visited set, column tops gathered in a dict with gaps of up to max_gap
# columns bridged. They share no code with devoc.structural.


def _near_straight(values, step_tol, drift_tol_frac):
    max_step = max((abs(b - a) for a, b in zip(values, values[1:])), default=0)
    return max_step <= step_tol and max(values) - min(values) <= math.ceil(drift_tol_frac * len(values))


def _reference_walk_down(body, r, c):
    h, w = body.shape
    path = [(r, c)]
    while True:
        nr = path[-1][0] + 1
        if nr >= h:
            break
        cc = path[-1][1]
        step = None
        if body[nr, cc]:
            step = (nr, cc)
        else:
            cands = [(nr, c2) for c2 in (cc - 1, cc + 1) if 0 <= c2 < w and body[nr, c2]]
            if len(cands) == 1:
                step = cands[0]
            elif len(cands) == 2:
                step = min(cands, key=lambda p: abs(p[1] - c))
        if step is None:
            break
        path.append(step)
    return path


def reference_vertical_candidates(skel, trace, cfg):
    h, w = skel.shape
    trace_mask = np.zeros_like(skel)
    if trace is not None:
        for r, c in trace.points:
            trace_mask[r, c] = True
    body = skel & ~ndimage.binary_dilation(trace_mask, structure=np.ones((3, 3), dtype=bool))
    min_len = math.ceil(cfg.spine_height_frac * h)
    p = np.pad(body, 1)
    above = p[0:h, 0:w] | p[0:h, 1 : w + 1] | p[0:h, 2 : w + 2]
    tops = body & ~above
    on_path = np.zeros_like(body)
    candidates = []
    for r, c in np.argwhere(tops):
        if on_path[r, c]:
            continue
        path = _reference_walk_down(body, int(r), int(c))
        for rr, cc in path:
            on_path[rr, cc] = True
        if len(path) < min_len:
            continue
        cols = [cc for _, cc in path]
        if _near_straight(cols, cfg.step_tol, cfg.drift_tol_frac):
            candidates.append((int(np.median(cols)), tuple(path)))
    candidates.sort(key=lambda t: -len(t[1]))
    kept = []
    for col, path in candidates:
        if all(abs(col - k[0]) > 2 for k in kept):
            kept.append((col, path))
    kept.sort(key=lambda t: -t[0])
    return kept


def reference_spine_location(skel, shirorekha, spine_col, spine_path, matra_path, cfg):
    mask = skel.copy()
    band_bottom = cfg.step_tol
    if shirorekha.trace is not None:
        band_bottom = max(band_bottom, max(r for r, _ in shirorekha.trace.points) + cfg.step_tol)
    mask[: band_bottom + 1, :] = False
    h, w = skel.shape
    for path in (spine_path, matra_path):
        for r, c in path:
            mask[r, max(c - 1, 0) : min(c + 2, w)] = False
    mass = int(mask[:, spine_col + 1 :].sum())
    return SpineKind.END if mass < cfg.mid_mass_tol else SpineKind.MID


def reference_trace(skel, max_consecutive_up):
    rr, cc = np.nonzero(skel)
    h, w = skel.shape
    c0 = int(cc.max())
    pos = (int(rr[cc == c0].min()), c0)
    points = [pos]
    seen = {pos}
    up_run = 0
    while True:
        moved = False
        for i, (dr, dc) in enumerate(((0, -1), (-1, -1), (1, -1), (-1, 0))):
            if i == 3 and up_run >= max_consecutive_up:
                continue
            r, c = pos[0] + dr, pos[1] + dc
            if 0 <= r < h and 0 <= c < w and skel[r, c] and (r, c) not in seen:
                pos = (r, c)
                points.append(pos)
                seen.add(pos)
                up_run = up_run + 1 if (dr, dc) == (-1, 0) else 0
                moved = True
                break
        if not moved:
            break
    if len(points) == 1:
        term = Termination.NO_MOVE
    elif brute_neighbor_count(skel, *points[-1]) == 1:
        term = Termination.OPEN_END
    else:
        term = Termination.LOOP
    return structural.Trace(tuple(points), term)


def _reference_headline_points(trace, step_tol):
    points = trace.points
    c0 = points[0][1]
    k = 0
    while k < len(points) and points[k][1] >= c0 - (step_tol + 1):
        k += 1
    prefix = points[:k] or points[:1]
    i = min(range(len(prefix)), key=lambda j: prefix[j][0])
    return points[i:]


def _reference_top_segment(points, max_gap):
    tops = {}
    for r, c in points:
        if c not in tops or r < tops[c]:
            tops[c] = r
    cmax = max(tops)
    cmin = min(tops)
    heights = [tops[cmax]]
    last_col = cmax
    c = cmax - 1
    while c >= cmin:
        if c in tops:
            gap = last_col - c - 1
            if gap:
                a, b = heights[-1], tops[c]
                for k in range(1, gap + 1):
                    heights.append(int(round(a + (b - a) * k / (gap + 1))))
            heights.append(tops[c])
            last_col = c
        elif last_col - c > max_gap:
            break
        c -= 1
    return heights, cmax - last_col + 1


def reference_detect_shirorekha(skel, cfg):
    trace = reference_trace(skel, cfg.max_consecutive_up)
    rejected = ShirorekhaResult(ShirorekhaKind.NONE, None, 0.0)
    if len(trace.points) < 2 or trace.termination != Termination.OPEN_END:
        return rejected
    points = _reference_headline_points(trace, cfg.step_tol)
    if len(points) < 2:
        return rejected
    heights, span = _reference_top_segment(points, cfg.max_gap)
    if not _near_straight(heights, cfg.step_tol, cfg.drift_tol_frac):
        return rejected
    span_ratio = span / skel.shape[1]
    if span_ratio >= cfg.full_span:
        kind = ShirorekhaKind.FULL
    elif span_ratio >= cfg.partial_span:
        kind = ShirorekhaKind.PARTIAL
    else:
        return rejected
    return ShirorekhaResult(kind, structural.Trace(points, trace.termination), span_ratio)


def reference_detect_spines(skel, shirorekha, cfg):
    """detect_spines with the oracle candidate search and spine location."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structural, "_vertical_candidates", reference_vertical_candidates)
        mp.setattr(structural, "_spine_location", reference_spine_location)
        return structural.detect_spines(skel, shirorekha, cfg)


def assert_stage_one_matches_reference(skel, cfg, max_consecutive_up):
    trace = structural.trace_from_rightmost(skel, max_consecutive_up)
    assert trace == reference_trace(skel, max_consecutive_up)
    # the column tops cover every column a trace spans only while this holds
    cols = [c for _, c in trace.points]
    assert {b - a for a, b in zip(cols, cols[1:])} <= {0, -1}
    for t in (trace, None):
        assert structural._vertical_candidates(skel, t, cfg) == reference_vertical_candidates(skel, t, cfg)
    # any trace will do: detect_spines reads only the kind and the points
    shiro = ShirorekhaResult(ShirorekhaKind.FULL, trace, 1.0)
    assert structural.detect_spines(skel, shiro, cfg) == reference_detect_spines(skel, shiro, cfg)
    shiro = structural.detect_shirorekha(skel, cfg)
    assert shiro == reference_detect_shirorekha(skel, cfg)
    traced = dataclasses.replace(cfg, max_consecutive_up=max_consecutive_up)
    assert structural.detect_shirorekha(skel, traced) == reference_detect_shirorekha(skel, traced)
    assert structural.detect_spines(skel, shiro, cfg) == reference_detect_spines(skel, shiro, cfg)


class TestStageOneMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.floats(0.02, 0.6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([-0.2, 0.0, 0.3, 0.75, 1.0, 1.3]),
        st.integers(0, 3),
        st.floats(0.0, 0.3),
        st.integers(0, 4),
        st.integers(0, 40),
        st.integers(0, 3),
    )
    def test_random_arrays(
        self, h, w, density, seed, thinned, height_frac, step_tol, drift_frac, max_up, mass_tol, max_gap
    ):
        img = np.random.default_rng(seed).random((h, w)) < density
        if thinned:
            img = raster.thin_to_convergence(img)
        if not img.any():
            return
        cfg = StructuralConfig(
            step_tol=step_tol,
            drift_tol_frac=drift_frac,
            spine_height_frac=height_frac,
            mid_mass_tol=mass_tol,
            max_gap=max_gap,
        )
        assert_stage_one_matches_reference(img, cfg, max_up)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.75]), st.integers(1, 100), st.integers(0, 40))
    def test_random_skeletons_with_bars(self, seed, height_frac, max_up, mass_tol):
        # long verticals so that candidates, matras and too_many all occur
        rng = np.random.default_rng(seed)
        skel = random_skeleton(rng)
        skel[2, rng.integers(0, 30) : rng.integers(70, 100)] = True
        for col in rng.choice(100, size=rng.integers(1, 5), replace=False):
            skel[rng.integers(2, 30) : rng.integers(60, 100), col] = True
        cfg = StructuralConfig(spine_height_frac=height_frac, mid_mass_tol=mass_tol)
        assert_stage_one_matches_reference(skel, cfg, max_up)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_spine_location_on_random_paths(self, seed, with_trace, with_matra):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(2, 40, size=2))
        skel = rng.random((h, w)) < rng.uniform(0.05, 0.6)

        def path():
            r0 = int(rng.integers(0, h))
            cols = np.clip(rng.integers(0, w) + np.cumsum(rng.integers(-1, 2, size=h - r0)), 0, w - 1)
            return tuple(zip(range(r0, h), (int(c) for c in cols)))

        points = tuple((int(r), int(c)) for r, c in zip(rng.integers(0, h, 6), rng.integers(0, w, 6)))
        trace = structural.Trace(points, Termination.OPEN_END) if with_trace else None
        shiro = ShirorekhaResult(ShirorekhaKind.FULL, trace, 1.0)
        spine_col, spine_path, matra_path = int(rng.integers(0, w)), path(), path() if with_matra else ()
        step_tol = int(rng.integers(0, 3))
        # the kind flips where the mass right of the spine crosses the
        # tolerance, so agreeing at every tolerance means equal masses
        for tol in range(h * w + 2):
            cfg = StructuralConfig(step_tol=step_tol, mid_mass_tol=tol)
            args = (skel, shiro, spine_col, spine_path, matra_path, cfg)
            assert structural._spine_location(*args) == reference_spine_location(*args)

    def test_corpus_glyphs_at_one_pixel_and_thick_pen(self, templates):
        cfg = StructuralConfig()
        for s in synth.generate_corpus(templates, 2, amplitude=2):
            thick = raster.thicken(np.repeat(np.repeat(s.image, 2, axis=0), 2, axis=1))
            for img in (s.image, thick):
                skel = pipeline.preprocess_glyph(img)
                assert_stage_one_matches_reference(skel, cfg, cfg.max_consecutive_up)
