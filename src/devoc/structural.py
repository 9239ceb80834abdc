"""Stage one: structural analysis of a 100x100 skeleton.

Finds the headline (shirorekha) by tracing from the rightmost pixel with a
priority mask that only moves left/up, tests it for near-straightness with
the differential-distance rule, then looks for near-vertical spines. The
(shirorekha kind, spine kind) pair routes the glyph to a per-group
classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .raster import EmptyImageError, neighbor_count, thicken

# candidate moves in priority order: W, NW, SW, N (column never increases)
PRIORITY_MASK = ((0, -1), (-1, -1), (1, -1), (-1, 0))


class InconsistentInputsError(Exception):
    pass


class Termination(Enum):
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


@dataclass(frozen=True)
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
    # headline (the visited set already rules out cycles)
    max_consecutive_up: int = 100
    max_gap: int = 2


def group_name(sc):
    """Stable short key for a structural class, e.g. 'full_end'."""
    return "%s_%s" % (sc.shirorekha.value, sc.spine.value)


def parse_group_name(name):
    try:
        shiro, spine = name.split("_")
        return StructuralClass(ShirorekhaKind(shiro), SpineKind(spine))
    except (ValueError, InconsistentInputsError):
        raise ValueError("bad group name %r" % name)


# ---------------------------------------------------------------------------
# Tracing


def trace_from_rightmost(skel, max_consecutive_up):
    """Trace from the rightmost (topmost on ties) foreground pixel, always
    taking the highest-priority unvisited neighbor among W, NW, SW, N.
    At most max_consecutive_up N-moves in a row (climb small bumps only)."""
    rr, cc = np.nonzero(skel)
    if rr.size == 0:
        raise EmptyImageError("cannot trace an empty skeleton")
    h, w = skel.shape
    c0 = int(cc.max())
    r0 = int(rr[cc == c0].min())
    pos = (r0, c0)
    points = [pos]
    seen = {pos}
    up_run = 0
    while True:
        moved = False
        for i, (dr, dc) in enumerate(PRIORITY_MASK):
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
    elif neighbor_count(skel, *points[-1]) == 1:
        term = Termination.OPEN_END
    else:
        term = Termination.LOOP
    return Trace(tuple(points), term)


# ---------------------------------------------------------------------------
# Straightness


def straightness(heights, step_tol, drift_tol):
    """Differential-distance straightness: bounded successive differences
    and bounded total drift of envelope distances."""
    heights = tuple(int(v) for v in heights)
    if not heights:
        raise ValueError("straightness needs a nonempty distance list")
    if len(heights) == 1:
        max_step = 0
    else:
        max_step = max(abs(b - a) for a, b in zip(heights, heights[1:]))
    drift = max(heights) - min(heights)
    ok = max_step <= step_tol and drift <= drift_tol
    return StraightnessReport(heights, max_step, drift, ok)


def _headline_points(trace, step_tol):
    """Drop the leading climb: a trace that starts mid-spine first ascends
    within the start column's neighborhood before turning onto the headline.
    Restart the trace at the topmost point of that leading run."""
    points = trace.points
    c0 = points[0][1]
    k = 0
    while k < len(points) and points[k][1] >= c0 - (step_tol + 1):
        k += 1
    prefix = points[:k] or points[:1]
    i = min(range(len(prefix)), key=lambda j: prefix[j][0])
    return points[i:]


def _trace_top_segment(points, max_gap):
    """Per-column topmost trace rows, walking left from the rightmost trace
    column. Gaps of <= max_gap columns are bridged by linear interpolation;
    a longer gap ends the segment. Returns (heights, n_columns_spanned)."""
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


def detect_shirorekha(skel, cfg=None):
    """Run the priority trace and accept it as a shirorekha only when it is
    near-straight and ends in an open end; classify Full/Partial/None by the
    fraction of the glyph width it spans."""
    cfg = cfg or StructuralConfig()
    trace = trace_from_rightmost(skel, cfg.max_consecutive_up)
    rejected = ShirorekhaResult(ShirorekhaKind.NONE, None, 0.0)
    if len(trace.points) < 2 or trace.termination != Termination.OPEN_END:
        return rejected
    points = _headline_points(trace, cfg.step_tol)
    if len(points) < 2:
        return rejected
    heights, span = _trace_top_segment(points, cfg.max_gap)
    drift_tol = math.ceil(cfg.drift_tol_frac * len(heights))
    report = straightness(heights, cfg.step_tol, drift_tol)
    if not report.is_near_straight:
        return rejected
    span_ratio = span / skel.shape[1]
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


def _walk_down(body, r, c):
    """Follow a near-vertical stroke downward, preferring straight-down
    moves and breaking diagonal ties toward the start column."""
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
            cands = [
                (nr, c2) for c2 in (cc - 1, cc + 1) if 0 <= c2 < w and body[nr, c2]
            ]
            if len(cands) == 1:
                step = cands[0]
            elif len(cands) == 2:
                step = min(cands, key=lambda p: abs(p[1] - c))
        if step is None:
            break
        path.append(step)
    return path


def _vertical_candidates(skel, trace, cfg):
    """Near-vertical near-straight strokes of at least spine_height_frac of
    the glyph height, found by walking down from stroke tops after masking
    out the traced shirorekha."""
    h, w = skel.shape
    trace_mask = np.zeros_like(skel)
    if trace is not None:
        for r, c in trace.points:
            trace_mask[r, c] = True
    body = skel & ~thicken(trace_mask)
    min_len = math.ceil(cfg.spine_height_frac * h)
    p = np.pad(body, 1)
    above = p[0:h, 0:w] | p[0:h, 1 : w + 1] | p[0:h, 2 : w + 2]
    tops = body & ~above
    on_path = np.zeros_like(body)
    candidates = []
    for r, c in np.argwhere(tops):
        if on_path[r, c]:
            continue
        path = _walk_down(body, int(r), int(c))
        for rr, cc in path:
            on_path[rr, cc] = True
        if len(path) < min_len:
            continue
        cols = [cc for _, cc in path]
        drift_tol = math.ceil(cfg.drift_tol_frac * len(path))
        if straightness(cols, cfg.step_tol, drift_tol).is_near_straight:
            candidates.append((int(np.median(cols)), tuple(path)))
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
