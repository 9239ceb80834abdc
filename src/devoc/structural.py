"""Stage one: structural analysis of a 100x100 skeleton.

Finds the headline (shirorekha) by tracing from the rightmost pixel with a
priority mask that only moves left/up, tests it for near-straightness with
the differential-distance rule, then looks for near-vertical spines. The
(shirorekha kind, spine kind) pair routes the glyph to a per-group
classifier.
"""

from __future__ import annotations

import functools
import math
import operator
import statistics
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .raster import EmptyImageError, _bordered, ends_and_junctions

# candidate moves in priority order: W, NW, SW, N (column never increases)
PRIORITY_MASK = ((0, -1), (-1, -1), (1, -1), (-1, 0))


class InconsistentInputsError(Exception):
    pass


class Termination(Enum):
    """Why a trace stopped. LOOP: on a pixel with two or more neighbors and
    no move left, as on a ring; the trace never revisits a pixel."""

    OPEN_END = "open_end"
    NO_MOVE = "no_move"
    LOOP = "loop"


class ShirorekhaKind(Enum):
    FULL = "full"
    PARTIAL = "partial"
    NONE = "none"


class SpineKind(Enum):
    END = "end"
    MID = "mid"
    NONE = "none"


@dataclass(frozen=True)
class Trace:
    points: tuple  # ((row, col), ...) consecutive points are 8-neighbors
    termination: Termination


@dataclass(frozen=True)
class StraightnessReport:
    distances: tuple
    max_step: int
    drift: int
    is_near_straight: bool


@dataclass(frozen=True)
class ShirorekhaResult:
    kind: ShirorekhaKind
    trace: Optional[Trace]
    span_ratio: float


@dataclass(frozen=True)
class SpineResult:
    kind: SpineKind
    spine_col: Optional[int] = None
    matra_col: Optional[int] = None
    spine_path: tuple = ()
    matra_path: tuple = ()
    too_many: bool = False


@dataclass(frozen=True, slots=True)
class StructuralClass:
    shirorekha: ShirorekhaKind
    spine: SpineKind

    def __post_init__(self):
        if self.spine != SpineKind.NONE and self.shirorekha == ShirorekhaKind.NONE:
            raise InconsistentInputsError("a spine requires a shirorekha")


@dataclass
class StructuralConfig:
    step_tol: int = 2
    drift_tol_frac: float = 0.10
    full_span: float = 0.85
    partial_span: float = 0.25
    spine_height_frac: float = 0.75
    mid_mass_tol: int = 5
    # effectively unbounded: the rightmost pixel of a leaning spine can sit
    # mid-stroke, and the trace must climb the full spine to reach the
    # headline (no bound is needed against cycles: the trace has none)
    max_consecutive_up: int = 100
    # no effect: the trace stops at a gap, so the headline it yields covers
    # every column it spans; kept so that config files setting it still load
    max_gap: int = 2

    def validate(self):
        """Raise ValueError on a setting stage one cannot use: a fraction
        outside [0, 1], partial_span above full_span, or a negative count."""
        for name in ("drift_tol_frac", "full_span", "partial_span", "spine_height_frac"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError("%s must be in [0, 1]" % name)
        if self.partial_span > self.full_span:
            raise ValueError("partial_span must not exceed full_span")
        for name in ("step_tol", "mid_mass_tol", "max_consecutive_up", "max_gap"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)


def group_name(sc):
    """Stable short key for a structural class, e.g. 'full_end'. Equal
    classes get the same string object, so the records of many glyphs share
    one name per group."""
    return sys.intern("%s_%s" % (sc.shirorekha.value, sc.spine.value))


@functools.cache
def parse_group_name(name):
    """The StructuralClass of a group_name; each of the seven names parses
    to one shared object. Raises ValueError on any other string."""
    try:
        shiro, spine = name.split("_")
        return StructuralClass(ShirorekhaKind(shiro), SpineKind(spine))
    except (ValueError, InconsistentInputsError):
        raise ValueError("bad group name %r" % name)


# ---------------------------------------------------------------------------
# Tracing


def trace_from_rightmost(skel, max_consecutive_up):
    """Trace from the rightmost (topmost on ties) foreground pixel, always
    taking the highest-priority foreground neighbor among W, NW, SW, N.
    At most max_consecutive_up N-moves in a row (climb small bumps only).
    Each move lowers the column, or the row within it: no pixel repeats."""
    cols = np.flatnonzero(skel.any(axis=0))
    if cols.size == 0:
        raise EmptyImageError("cannot trace an empty skeleton")
    grid, ring = _bordered(skel)
    px = memoryview(grid.reshape(-1))
    stride = grid.shape[1]
    i = (int(np.argmax(skel[:, cols[-1]])) + 1) * stride + int(cols[-1]) + 1
    path = [i]
    moves = [dr * stride + dc for dr, dc in PRIORITY_MASK]
    north = moves[-1]
    up_run = 0
    while True:
        for step in moves:
            if px[i + step] and (step != north or up_run < max_consecutive_up):
                break
        else:
            break
        up_run = up_run + 1 if step == north else 0
        i += step
        path.append(i)
    points = tuple((q - 1, r - 1) for q, r in (divmod(j, stride) for j in path))
    if len(points) == 1:
        term = Termination.NO_MOVE
    elif ends_and_junctions(grid.reshape(-1), ring, np.array([i]))[0][0]:
        term = Termination.OPEN_END
    else:
        term = Termination.LOOP
    return Trace(points, term)


# ---------------------------------------------------------------------------
# Straightness


def straightness(heights, step_tol, drift_tol):
    """Differential-distance straightness: bounded successive differences
    and bounded total drift of envelope distances."""
    heights = tuple(map(int, heights))
    if not heights:
        raise ValueError("straightness needs a nonempty distance list")
    if len(heights) == 1:
        max_step = 0
    else:
        max_step = max(map(abs, map(operator.sub, heights[1:], heights)))
    drift = max(heights) - min(heights)
    ok = max_step <= step_tol and drift <= drift_tol
    return StraightnessReport(heights, max_step, drift, ok)


def _headline_tops(trace, step_tol):
    """The headline points of the trace and each column's top row,
    rightmost column first. A trace that starts mid-spine first ascends
    within the start column's neighborhood before turning onto the
    headline, so the headline restarts at the topmost point of that leading
    run. The trace moves only W, NW, SW or N, so its column steps by 0 or
    -1 and the tops cover every column the headline spans, and within a
    column it only moves N, so the column's last point is its top."""
    points = trace.points
    c0 = points[0][1]
    k = 1
    while k < len(points) and points[k][1] >= c0 - (step_tol + 1):
        k += 1
    points = points[min(range(k), key=lambda j: points[j][0]) :]
    return points, list({c: r for r, c in points}.values())


def detect_shirorekha(skel, cfg=None):
    """Run the priority trace and accept it as a shirorekha only when it is
    near-straight and ends in an open end; classify Full/Partial/None by the
    fraction of the glyph width it spans."""
    cfg = cfg or StructuralConfig()
    trace = trace_from_rightmost(skel, cfg.max_consecutive_up)
    rejected = ShirorekhaResult(ShirorekhaKind.NONE, None, 0.0)
    if len(trace.points) < 2 or trace.termination != Termination.OPEN_END:
        return rejected
    points, heights = _headline_tops(trace, cfg.step_tol)
    if len(points) < 2:
        return rejected
    drift_tol = math.ceil(cfg.drift_tol_frac * len(heights))
    report = straightness(heights, cfg.step_tol, drift_tol)
    if not report.is_near_straight:
        return rejected
    span_ratio = len(heights) / skel.shape[1]
    if span_ratio >= cfg.full_span:
        kind = ShirorekhaKind.FULL
    elif span_ratio >= cfg.partial_span:
        kind = ShirorekhaKind.PARTIAL
    else:
        return rejected
    # keep only the headline portion: downstream consumers (spine masking,
    # overlays) must not see the climb prefix
    return ShirorekhaResult(kind, Trace(points, trace.termination), span_ratio)


# ---------------------------------------------------------------------------
# Spines


def _walk_down(buf, stride, r, c):
    """Columns, one per row from row r down, of the walk along a
    near-vertical stroke from (r, c) in buf, the bytes of a zero-bordered
    grid with rows stride long: straight down when possible, else the one
    diagonal, breaking a diagonal tie toward the start column."""
    cols = [c]
    i = (r + 1) * stride + c + 1
    while True:
        i += stride
        if buf[i]:
            pass
        elif buf[i - 1] and not (buf[i + 1] and cols[-1] < c):
            i -= 1
        elif buf[i + 1]:
            i += 1
        else:
            break
        cols.append(i % stride - 1)
    return cols


def _flat(points, stride):
    """Flat indices of (row, col) points in a zero-bordered grid with rows stride long."""
    return np.array([(r + 1) * stride + c + 1 for r, c in points])


def _vertical_candidates(skel, trace, cfg):
    """Near-vertical near-straight strokes of at least spine_height_frac of
    the glyph height, found by walking down from stroke tops (no body pixel
    among the three above) after masking out the traced shirorekha. A walk
    moves down one row per step, so one from a top below row h - min_len
    is too short and is never started; every later pixel of a walk has a
    body pixel above it, so no top lies on another walk's path."""
    h, w = skel.shape
    min_len = math.ceil(cfg.spine_height_frac * h)
    grid = _bordered(skel)[0]
    stride = w + 2
    if trace is not None:
        block = np.add.outer((-stride, 0, stride), (-1, 0, 1)).ravel()
        grid.reshape(-1)[_flat(trace.points, stride)[:, None] + block] = False
    n = min(max(h - min_len + 1, 0), h)
    tops = grid[1 : n + 1, 1:-1] & ~(grid[:n, :-2] | grid[:n, 1:-1] | grid[:n, 2:])
    buf = grid.tobytes()
    candidates = []
    for r, c in zip(*(a.tolist() for a in np.nonzero(tops))):
        cols = _walk_down(buf, stride, r, c)
        if len(cols) < min_len:
            continue
        drift_tol = math.ceil(cfg.drift_tol_frac * len(cols))
        if straightness(cols, cfg.step_tol, drift_tol).is_near_straight:
            candidates.append((int(statistics.median(cols)), tuple(zip(range(r, r + len(cols)), cols))))
    # dedupe near-coincident columns, keep the longer stroke
    candidates.sort(key=lambda t: -len(t[1]))
    kept = []
    for col, path in candidates:
        if all(abs(col - k[0]) > 2 for k in kept):
            kept.append((col, path))
    kept.sort(key=lambda t: -t[0])  # rightmost first
    return kept


def detect_spines(skel, shirorekha, cfg=None):
    """Apply the spine rules: a spine needs a shirorekha, must be a
    near-straight vertical of at least 3/4 of the glyph height, and of two
    qualifying strokes the rightmost is the matra."""
    cfg = cfg or StructuralConfig()
    if not skel.any():
        raise EmptyImageError("cannot detect spines on an empty skeleton")
    if shirorekha.kind == ShirorekhaKind.NONE:
        return SpineResult(SpineKind.NONE)
    candidates = _vertical_candidates(skel, shirorekha.trace, cfg)
    too_many = len(candidates) > 2
    candidates = candidates[:2]
    if not candidates:
        return SpineResult(SpineKind.NONE, too_many=too_many)
    if len(candidates) == 1:
        matra_col, matra_path = None, ()
        spine_col, spine_path = candidates[0]
    else:
        (matra_col, matra_path), (spine_col, spine_path) = candidates
    kind = _spine_location(skel, shirorekha, spine_col, spine_path, matra_path, cfg)
    return SpineResult(kind, spine_col, matra_col, spine_path, matra_path, too_many)


def _spine_location(skel, shirorekha, spine_col, spine_path, matra_path, cfg):
    """EndSpine when nearly nothing of the character body lies right of the
    spine (headline band and the vertical strokes themselves excluded)."""
    band_bottom = cfg.step_tol
    if shirorekha.trace is not None:
        band_bottom = max(band_bottom, max(r for r, _ in shirorekha.trace.points) + cfg.step_tol)
    grid = _bordered(skel)[0]
    grid[: band_bottom + 2] = False
    # each vertical stroke pixel with its left and right neighbors
    grid.reshape(-1)[_flat(spine_path + matra_path, grid.shape[1])[:, None] + (-1, 0, 1)] = False
    mass = int(grid[:, spine_col + 2 :].sum())
    return SpineKind.END if mass < cfg.mid_mass_tol else SpineKind.MID
