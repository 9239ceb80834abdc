"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own helpers (flood fill
instead of scipy labeling, per-pixel loops instead of vectorized counts) so
each check is a genuinely independent recomputation.
"""

import numpy as np
import pytest


def flood_fill_components(img):
    """8-connected foreground component count by explicit flood fill."""
    img = np.asarray(img, dtype=bool)
    h, w = img.shape
    seen = np.zeros((h, w), dtype=bool)
    count = 0
    for r0 in range(h):
        for c0 in range(w):
            if not img[r0, c0] or seen[r0, c0]:
                continue
            count += 1
            stack = [(r0, c0)]
            seen[r0, c0] = True
            while stack:
                r, c = stack.pop()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < h and 0 <= cc < w and img[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            stack.append((rr, cc))
    return count


def brute_neighbor_count(img, row, col):
    total = 0
    h, w = img.shape
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            r, c = row + dr, col + dc
            if 0 <= r < h and 0 <= c < w and img[r, c]:
                total += 1
    return total


def has_full_2x2_block(img):
    img = np.asarray(img, dtype=bool)
    h, w = img.shape
    for r in range(h - 1):
        for c in range(w - 1):
            if img[r, c] and img[r + 1, c] and img[r, c + 1] and img[r + 1, c + 1]:
                return True
    return False


def ink_box(img):
    """(row_min, row_max, col_min, col_max): the rows and columns that hold
    img's foreground."""
    rows, cols = np.flatnonzero(img.any(axis=1)), np.flatnonzero(img.any(axis=0))
    return rows[0], rows[-1], cols[0], cols[-1]


def random_blobs(rng, size=200, n_discs=8, max_radius=14):
    """Union of random filled discs; the staple input for thinning checks."""
    img = np.zeros((size, size), dtype=bool)
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(n_discs):
        r = rng.integers(2, max_radius + 1)
        cy = rng.integers(r, size - r)
        cx = rng.integers(r, size - r)
        img |= (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    return img


def random_skeleton(rng, size=100):
    """Random stroke drawing thinned to a valid skeleton."""
    from devoc import raster
    from devoc.synth import _bresenham

    img = np.zeros((size, size), dtype=bool)
    for _ in range(rng.integers(3, 8)):
        r0, c0, r1, c1 = rng.integers(0, size, size=4)
        for r, c in _bresenham(int(r0), int(c0), int(r1), int(c1)):
            img[r, c] = True
    return raster.thin_to_convergence(img)


@pytest.fixture(scope="session")
def templates():
    from devoc.synth import default_templates

    return default_templates()
