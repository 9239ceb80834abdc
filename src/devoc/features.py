"""Stage-two features: 4x4 zoning of the 100x100 skeleton.

Each of the 16 tiles (25x25 pixels) contributes an (intersection count,
open-end count) pair, giving a 32-value vector. Point classification uses
full-image neighbor counts, so tile boundaries never create phantom ends.
"""

from __future__ import annotations

import numpy as np

from .raster import NORM_SIZE, _bordered, ends_and_junctions

TILE = 25
GRID = 4
N_FEATURES = 2 * GRID * GRID


class WrongDimensionsError(Exception):
    pass


# tile index 0..15, row-major 4x4 order, of every pixel of the bordered grid, flattened
_TILE_INDEX = np.pad((np.arange(NORM_SIZE) // TILE)[:, None] * GRID + np.arange(NORM_SIZE) // TILE, 1).ravel()


def extract_features(skel):
    """32 counts: tiles in row-major order, each contributing the adjacent
    pair (intersections, open ends): the junctions and open ends of
    raster.ends_and_junctions."""
    if skel.shape != (NORM_SIZE, NORM_SIZE):
        raise WrongDimensionsError("expected %dx%d skeleton, got %r" % (NORM_SIZE, NORM_SIZE, skel.shape))
    grid, ring = _bordered(skel)
    fg = np.flatnonzero(grid)
    ends, junctions = ends_and_junctions(grid.reshape(-1), ring, fg)
    vec = np.empty(N_FEATURES, dtype=np.int64)
    vec[0::2] = np.bincount(_TILE_INDEX[fg[junctions]], minlength=GRID * GRID)
    vec[1::2] = np.bincount(_TILE_INDEX[fg[ends]], minlength=GRID * GRID)
    return vec


def scale_features(vec, cap):
    """Network input conditioning: counts divided by cap, clamped to [0,1]."""
    return np.clip(np.asarray(vec, dtype=float) / cap, 0.0, 1.0)
