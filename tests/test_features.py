import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devoc import features
from devoc.features import N_FEATURES, PointKind, WrongDimensionsError
from devoc.raster import OutOfBoundsError

from conftest import brute_neighbor_count, random_skeleton


def blank():
    return np.zeros((100, 100), dtype=bool)


def naive_feature_oracle(skel):
    """Classify every pixel by a per-pixel neighbor loop, then bucket by
    tile arithmetic done from scratch."""
    vec = [0] * N_FEATURES
    h, w = skel.shape
    for r in range(h):
        for c in range(w):
            if not skel[r, c]:
                continue
            n = brute_neighbor_count(skel, r, c)
            tile = (r // 25) * 4 + (c // 25)
            if n >= 3:
                vec[2 * tile] += 1
            elif n == 1:
                vec[2 * tile + 1] += 1
    return vec


class TestTileOf:
    def test_corners(self):
        assert features.tile_of(0, 0) == 0
        assert features.tile_of(0, 99) == 3
        assert features.tile_of(99, 0) == 12
        assert features.tile_of(99, 99) == 15

    def test_boundaries(self):
        assert features.tile_of(24, 24) == 0
        assert features.tile_of(25, 24) == 4
        assert features.tile_of(24, 25) == 1
        assert features.tile_of(50, 75) == 11

    def test_out_of_bounds(self):
        for r, c in ((-1, 0), (0, -1), (100, 0), (0, 100)):
            with pytest.raises(OutOfBoundsError):
                features.tile_of(r, c)


class TestFeaturePoints:
    def test_plus_cross(self):
        img = blank()
        img[12, 2:23] = True
        img[2:23, 12] = True
        points = features.find_feature_points(img)
        ends = {p.position for p in points if p.kind == PointKind.OPEN_END}
        inters = {p.position for p in points if p.kind == PointKind.INTERSECTION}
        # the four pixels flanking the center also see >=3 neighbors
        # (diagonal contact with the perpendicular arm)
        assert inters == {(12, 12), (11, 12), (13, 12), (12, 11), (12, 13)}
        assert ends == {(12, 2), (12, 22), (2, 12), (22, 12)}

    def test_straight_line_has_only_two_ends(self):
        img = blank()
        img[12, :] = True
        points = features.find_feature_points(img)
        assert {p.kind for p in points} == {PointKind.OPEN_END}
        assert {p.position for p in points} == {(12, 0), (12, 99)}

    def test_isolated_pixel_emits_nothing(self):
        img = blank()
        img[50, 50] = True
        assert features.find_feature_points(img) == []

    def test_counts_use_full_image_not_tiles(self):
        # a line crossing a tile boundary: the pixels at columns 24/25 have
        # two neighbors each, so the boundary must not synthesize open ends
        img = blank()
        img[10, 20:31] = True
        vec = features.extract_features(img)
        assert vec[2 * 0 + 1] == 1  # left end (10,20) in tile 0
        assert vec[2 * 1 + 1] == 1  # right end (10,30) in tile 1
        assert vec.sum() == 2


class TestExtract:
    def test_vector_shape_and_layout(self):
        img = blank()
        img[12, 2:23] = True
        img[2:23, 12] = True  # cross inside tile 0
        vec = features.extract_features(img)
        assert vec.shape == (N_FEATURES,)
        assert vec[0] == 5 and vec[1] == 4
        assert vec[2:].sum() == 0

    def test_wrong_dimensions(self):
        with pytest.raises(WrongDimensionsError):
            features.extract_features(np.zeros((50, 100), dtype=bool))

    def test_empty_image_is_zero_vector(self):
        assert not features.extract_features(blank()).any()

    def test_matches_naive_oracle_on_random_skeletons(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            skel = random_skeleton(rng)
            assert features.extract_features(skel).tolist() == naive_feature_oracle(skel)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_feature_point_counts(self, seed):
        skel = random_skeleton(np.random.default_rng(seed))
        vec = [0] * N_FEATURES
        for pt in features.find_feature_points(skel):
            vec[2 * features.tile_of(*pt.position) + (pt.kind == PointKind.OPEN_END)] += 1
        assert features.extract_features(skel).tolist() == vec

    def test_tile_counts_partition_image_totals(self):
        rng = np.random.default_rng(202)
        from devoc.raster import neighbor_count_grid

        for _ in range(15):
            skel = random_skeleton(rng)
            counts = neighbor_count_grid(skel)
            vec = features.extract_features(skel)
            assert vec[0::2].sum() == int((skel & (counts >= 3)).sum())
            assert vec[1::2].sum() == int((skel & (counts == 1)).sum())


class TestScale:
    def test_examples(self):
        out = features.scale_features([0, 1, 5, 10], cap=5.0)
        assert out.tolist() == [0.0, 0.2, 1.0, 1.0]

    def test_range_always_unit_interval(self):
        rng = np.random.default_rng(3)
        vec = rng.integers(0, 30, size=N_FEATURES)
        out = features.scale_features(vec)
        assert out.min() >= 0.0 and out.max() <= 1.0
