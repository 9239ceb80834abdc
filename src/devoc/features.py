"""Stage-two features: 4x4 zoning of the 100x100 skeleton.

Each of the 16 tiles (25x25 pixels) contributes an (intersection count,
open-end count) pair, giving a 32-value vector. Point classification uses
full-image neighbor counts, so tile boundaries never create phantom ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .raster import NORM_SIZE, OutOfBoundsError, neighbor_count_grid

TILE = 25
GRID = 4
N_FEATURES = 2 * GRID * GRID


class WrongDimensionsError(Exception):
    pass


class PointKind(Enum):
    INTERSECTION = "intersection"
    OPEN_END = "open_end"


@dataclass(frozen=True)
class FeaturePoint:
    position: tuple  # (row, col)
    kind: PointKind


def tile_of(row, col):
    """Tile index 0..15 in row-major 4x4 order."""
    if not (0 <= row < NORM_SIZE and 0 <= col < NORM_SIZE):
        raise OutOfBoundsError("(%d,%d) outside the %d grid" % (row, col, NORM_SIZE))
    return (row // TILE) * GRID + col // TILE


# tile_of for every pixel of the normalized grid
_TILE_INDEX = (np.arange(NORM_SIZE) // TILE)[:, None] * GRID + np.arange(NORM_SIZE) // TILE


def find_feature_points(skel):
    """Classify every foreground pixel by its 8-neighbor count:
    1 -> open end, >=3 -> intersection, anything else emits nothing."""
    counts = neighbor_count_grid(skel)
    points = []
    for r, c in np.argwhere(skel & (counts == 1)):
        points.append(FeaturePoint((int(r), int(c)), PointKind.OPEN_END))
    for r, c in np.argwhere(skel & (counts >= 3)):
        points.append(FeaturePoint((int(r), int(c)), PointKind.INTERSECTION))
    return points


def extract_features(skel):
    """32 counts: tiles in row-major order, each contributing the adjacent
    pair (intersections, open ends)."""
    if skel.shape != (NORM_SIZE, NORM_SIZE):
        raise WrongDimensionsError("expected %dx%d skeleton, got %r" % (NORM_SIZE, NORM_SIZE, skel.shape))
    skel = np.asarray(skel, dtype=bool)
    counts = neighbor_count_grid(skel)
    vec = np.empty(N_FEATURES, dtype=np.int64)
    vec[0::2] = np.bincount(_TILE_INDEX[skel & (counts >= 3)], minlength=GRID * GRID)
    vec[1::2] = np.bincount(_TILE_INDEX[skel & (counts == 1)], minlength=GRID * GRID)
    return vec


def scale_features(vec, cap=5.0):
    """Network input conditioning: counts divided by cap, clamped to [0,1]."""
    return np.clip(np.asarray(vec, dtype=float) / cap, 0.0, 1.0)
