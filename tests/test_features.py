import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devoc import features, pipeline, raster, synth
from devoc.features import N_FEATURES, WrongDimensionsError

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


def end_tiles(r, c):
    """Tiles of the two open ends of a diagonal two-pixel stroke from (r, c)
    one step toward the middle of (r, c)'s own tile, as extract_features
    counts them."""
    img = blank()
    img[r, c] = True
    img[r + (1 if r % 25 < 12 else -1), c + (1 if c % 25 < 12 else -1)] = True
    vec = features.extract_features(img)
    assert not vec[0::2].any()
    return np.repeat(np.arange(16), vec[1::2]).tolist()


class TestTileOf:
    def test_corners(self):
        assert end_tiles(0, 0) == [0, 0]
        assert end_tiles(0, 99) == [3, 3]
        assert end_tiles(99, 0) == [12, 12]
        assert end_tiles(99, 99) == [15, 15]

    def test_boundaries(self):
        assert end_tiles(24, 24) == [0, 0]
        assert end_tiles(25, 24) == [4, 4]
        assert end_tiles(24, 25) == [1, 1]
        assert end_tiles(50, 75) == [11, 11]


class TestFeaturePoints:
    def test_plus_cross(self):
        img = blank()
        img[12, 2:23] = True
        img[2:23, 12] = True
        vec = features.extract_features(img)
        # the four pixels flanking the center also see >=3 neighbors
        # (diagonal contact with the perpendicular arm): 5 intersections,
        # plus the 4 arm tips as open ends, all in tile 0
        assert vec[0] == 5 and vec[1] == 4
        assert vec[2:].sum() == 0

    def test_straight_line_has_only_two_ends(self):
        img = blank()
        img[12, :] = True
        vec = features.extract_features(img)
        assert vec[0::2].sum() == 0
        assert vec[1] == 1 and vec[2 * 3 + 1] == 1  # ends (12,0) and (12,99)
        assert vec.sum() == 2

    def test_isolated_pixel_emits_nothing(self):
        img = blank()
        img[50, 50] = True
        assert not features.extract_features(img).any()

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

    def test_matches_naive_oracle_on_random_skeletons(self, templates):
        rng = np.random.default_rng(101)
        skels = [random_skeleton(rng) for _ in range(15)]
        # acceptance-corpus glyphs at pen 3 (one 3x3 dilation) and at the
        # benchmark's thick pen (2x replication, one 3x3 dilation), where
        # staircase corners leave about 120 junctions per glyph
        for s in synth.generate_corpus(templates, 1, amplitude=2):
            thick = raster.thicken(np.repeat(np.repeat(s.image, 2, axis=0), 2, axis=1))
            skels += [pipeline.preprocess_glyph(img) for img in (thick, raster.thicken(s.image))]
        for skel in skels:
            assert features.extract_features(skel).tolist() == naive_feature_oracle(skel)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_feature_point_counts(self, seed):
        skel = random_skeleton(np.random.default_rng(seed))
        assert features.extract_features(skel).tolist() == naive_feature_oracle(skel)

    def test_tile_counts_partition_image_totals(self):
        rng = np.random.default_rng(202)
        for _ in range(15):
            skel = random_skeleton(rng)
            counts = [brute_neighbor_count(skel, r, c) for r, c in np.argwhere(skel)]
            vec = features.extract_features(skel)
            assert vec[0::2].sum() == sum(n >= 3 for n in counts)
            assert vec[1::2].sum() == sum(n == 1 for n in counts)


class TestScale:
    def test_examples(self):
        out = features.scale_features([0, 1, 5, 10], cap=5.0)
        assert out.tolist() == [0.0, 0.2, 1.0, 1.0]

    def test_range_always_unit_interval(self):
        rng = np.random.default_rng(3)
        vec = rng.integers(0, 30, size=N_FEATURES)
        out = features.scale_features(vec, cap=5.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
