"""Binary raster images plus the preprocessing chain.

Images are 2-D numpy bool arrays, shape (height, width), True = foreground
ink. All functions are pure and never modify their arguments.

The preprocessing chain turns a raw glyph into a 100x100 one-pixel-wide
skeleton: crop to the ink -> shrink to the frame's scale (a glyph 150 px or
more on its long side only) -> thicken -> thin -> prune -> normalize (which
re-thins after scaling).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
import re

import numpy as np

NORM_SIZE = 100


class RasterError(Exception):
    """Base class for raster failures."""


class MalformedHeaderError(RasterError):
    pass


class DimensionMismatchError(RasterError):
    pass


class EmptyImageError(RasterError):
    pass


# ---------------------------------------------------------------------------
# Netpbm I/O


# One rule reads every text part of a netpbm file, the header and the P1/P2
# bodies: only _SEPARATORS separate tokens, and a _COMMENT runs from '#' to
# the end of its line. A header token also takes at most one whitespace byte
# after it, so the last one ends where a P4/P5 raster starts. A text body
# loses its comments in one pass; P1 then keeps its non-separator bytes, and
# P2 is split _CHUNK bytes at a time, each cut just after a separator.
_SEPARATORS = b" \t\r\n"
_COMMENT = re.compile(rb"#[^\n]*")
_LEXEME = re.compile(b"%s|([^#%s]+)[%s]?" % (_COMMENT.pattern, _SEPARATORS, _SEPARATORS))
_SEPARATOR = re.compile(b"[%s]" % _SEPARATORS)
_TO_SPACE = bytes.maketrans(_SEPARATORS, b" " * len(_SEPARATORS))
_CHUNK = 1 << 16  # P2 body bytes split at once, rounded up to a separator
_HEADER_INTS = {b"P1": 2, b"P4": 2, b"P2": 3, b"P5": 3}  # width, height[, maxval]


def _parse(buf):
    """The foreground of a netpbm buffer: PBM (P1/P4) value 1, PGM (P2/P5)
    the darker half of the range. A text body is never split into a list of
    all its lines or tokens."""
    words = (m for m in _LEXEME.finditer(buf) if m[1])  # header tokens
    magic = buf[:2]
    if magic not in _HEADER_INTS or next(words)[1] != magic:
        raise MalformedHeaderError("not a P1, P2, P4 or P5 netpbm file")
    fields = []
    for _ in range(_HEADER_INTS[magic]):
        word = next(words, None)
        if word is None:
            raise MalformedHeaderError("unexpected end of header")
        try:
            fields.append(int(word[1]))
        except ValueError:
            raise MalformedHeaderError("expected integer, got %r" % word[1])
    width, height, maxval = (fields + [1])[:3]  # a PBM's maxval is 1
    if width < 1 or height < 1:
        raise MalformedHeaderError("bad dimensions %dx%d" % (width, height))
    if not 1 <= maxval <= 65535:
        raise MalformedHeaderError("bad maxval %d" % maxval)
    n = width * height
    if magic == b"P4":  # rows padded to whole bytes
        row_bytes = (width + 7) // 8
        packed = _raster(buf, word.end(), row_bytes * height, magic).reshape(height, row_bytes)
        return np.unpackbits(packed, axis=1)[:, :width].astype(bool)
    ink = functools.partial(operator.ge, maxval / 2)  # gray <= maxval / 2
    if magic == b"P5":
        itemsize = 1 if maxval < 256 else 2
        gray = _raster(buf, word.end(), n * itemsize, magic).view(np.uint8 if itemsize == 1 else ">u2")
        return ink(gray.reshape(height, width))
    body = _COMMENT.sub(b"", buf[word.end() :])
    if magic == b"P1":
        digits = body.translate(None, _SEPARATORS)
        bad = digits.translate(None, b"01")
        if bad:
            raise MalformedHeaderError("bad P1 pixel byte %r" % bad[:1])
        if len(digits) != n:
            raise DimensionMismatchError("P1 raster has %d pixels, header says %d" % (len(digits), n))
        return (np.frombuffer(digits, dtype=np.uint8) == ord("1")).reshape(height, width)
    tokens = filter(None, itertools.chain.from_iterable(_split_chunks(body)))
    values = map(int, itertools.islice(tokens, n))
    try:  # a token int() refuses, or too few tokens to reshape
        return np.fromiter(map(ink, values), dtype=bool).reshape(height, width)
    except ValueError:
        raise DimensionMismatchError("P2 raster truncated")


def _split_chunks(body):
    """The space-split chunks of a comment-free text body, each cut just
    after the first separator _CHUNK or more bytes past its start."""
    pos = 0
    while pos < len(body):
        cut = _SEPARATOR.search(body, pos + _CHUNK)
        end = cut.end() if cut else len(body)
        yield body[pos:end].translate(_TO_SPACE).split(b" ")
        pos = end


def _raster(buf, start, size, magic):
    """The size bytes of a binary raster from start on, as uint8."""
    raster = buf[start : start + size]
    if len(raster) != size:
        raise DimensionMismatchError("%s raster truncated" % magic.decode())
    return np.frombuffer(raster, dtype=np.uint8)


def load_image(path):
    """Read a netpbm image (PBM P1/P4, PGM P2/P5) as a bool foreground grid."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise RasterError("cannot read %s: %s" % (path, exc.strerror or exc))
    return _parse(buf)


def save_pbm(path, img):
    """Write a plain-text P1 PBM (foreground = 1), one raster row per line."""
    img = np.asarray(img, dtype=bool)
    h, w = img.shape
    rows = np.column_stack([img.astype(np.uint8) + ord("0"), np.full(h, ord("\n"), dtype=np.uint8)])
    atomic_write_bytes(path, b"P1\n%d %d\n" % (w, h) + rows.tobytes())


def atomic_write_bytes(path, data):
    """Write through a temp file and rename it over path; on failure the
    temp file is removed and the error re-raised."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_utf8(path, text):
    """Write text to path as UTF-8, atomically."""
    atomic_write_bytes(path, text.encode("utf-8"))


def read_utf8(path, error):
    """The text of path, line ends as written; raises error(message naming
    the file) when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error("%s is not UTF-8 text: %s" % (path, exc))


def check_text_fields(fields, where):
    """Raise ValueError naming where for a field devoc's text files cannot
    hold: they join fields with unquoted commas and read lines back with
    str.splitlines, so a field holds no comma, no double quote and none of
    the line breaks splitlines knows (CR, LF, U+2028, ...)."""
    for f in fields:
        if "," in f or '"' in f or f.splitlines() not in ([], [f]):
            raise ValueError("%s: field %r holds a comma, a double quote or a line break" % (where, f))


# ---------------------------------------------------------------------------
# Geometry


def crop_to_ink(img):
    """A copy of img cut to the rows and columns that hold foreground."""
    rows = np.flatnonzero(img.any(axis=1))
    if rows.size == 0:
        raise EmptyImageError("image has no foreground pixels")
    cols = np.flatnonzero(img.any(axis=0))
    return img[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].copy()


# 8-neighbor offsets in Zhang-Suen order P2..P9 (N, NE, E, SE, S, SW, W, NW)
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


# ---------------------------------------------------------------------------
# Morphology


def thicken(img):
    """One pass of 3x3 dilation (bridges 1-2 pixel gaps from shaky strokes)."""
    p = _bordered(img)[0]
    out = p[1:-1, 1:-1].copy()
    h, w = out.shape
    for dr, dc in _RING:
        out |= p[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    return out


def _bordered(img):
    """img as a bool grid with a one-pixel zero border, plus the flat
    offsets of the _RING neighbors in that grid. Every 3x3 rule below reads
    a pixel's neighbors through these offsets, so none needs a bounds check."""
    img = np.asarray(img, dtype=bool)
    h, w = img.shape
    grid = np.zeros((h + 2, w + 2), dtype=bool)
    grid[1:-1, 1:-1] = img
    return grid, np.array([dr * (w + 2) + dc for dr, dc in _RING])


def ends_and_junctions(buf, ring, idx):
    """Two bool arrays aligned with idx, flat indices into a _bordered grid's
    buffer buf: a pixel with one 8-neighbor is an open end, one with three
    or more a junction. Pruning, the trace and the features all use it."""
    counts = buf[ring[:, None] + idx].view(np.uint8).sum(axis=0, dtype=np.uint8)
    return counts == 1, counts >= 3


_WEIGHTS = (1 << np.arange(8, dtype=np.uint8))[:, None]  # ring code bit of each _RING neighbor


def _codes(bits):
    """Ring codes (bit i set when neighbor _RING[i] is foreground) from ring
    bits gathered as a bool array of shape (8, n), one column per pixel."""
    return (bits.view(np.uint8) * _WEIGHTS).sum(axis=0, dtype=np.uint8)


def _code(px, i, w):
    """_codes for one pixel over Python ints: px is a memoryview of a
    bordered grid w pixels wide, i a flat index into it. Read this way, in
    _RING order unrolled, a code costs about a third of a loop over
    ndarray.item."""
    a, b = i - w, i + w
    return (
        px[a] | px[a + 1] << 1 | px[i + 1] << 2 | px[b + 1] << 3
        | px[b] << 4 | px[b - 1] << 5 | px[i - 1] << 6 | px[a - 1] << 7
    )


def _ring_tables():
    """Every local rule as a 256-entry table indexed by ring code, from B
    (foreground neighbors) and A (0->1 transitions around P2..P9, the
    Rutovitz crossing number).

    Zhang-Suen step 1 and step 2: 2 <= B <= 6, A == 1 and the step's two
    side conditions. Peel: the pixel is in a 2x2 all-foreground block
    ((N,NE,E), (E,SE,S), (S,SW,W) or (W,NW,N) all set, so B >= 3 and it is
    no endpoint) and deleting it leaves its neighbors one piece (A == 1)."""
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    B = bits.sum(axis=1)
    A = (~bits & np.roll(bits, -1, axis=1)).sum(axis=1)
    P2, P3, P4, P5, P6, P7, P8, P9 = bits.T
    thinnable = (B >= 2) & (B <= 6) & (A == 1)
    steps = (
        thinnable & ~(P2 & P4 & P6) & ~(P4 & P6 & P8),
        thinnable & ~(P2 & P4 & P8) & ~(P2 & P6 & P8),
    )
    in_block = (P2 & P3 & P4) | (P4 & P5 & P6) | (P6 & P7 & P8) | (P8 & P9 & P2)
    return steps, (in_block & (A == 1)).tolist()


_ZS_TABLES, _PEEL = _ring_tables()  # Zhang-Suen steps 1, 2 (arrays); peel (a list)
_ZS_LISTS = tuple(t.tolist() for t in _ZS_TABLES)

# The regimes of a thinning subiteration after the first pass, by its
# number of touched indices (repeats counted; each deletion touches 8): up to
# _FEW_TOUCHED, as when Zhang-Suen erodes a 2-px diagonal one pixel per
# subiteration, numpy's fixed cost per call would outweigh the pixels, so the
# subiteration runs over Python ints (_zs_delete_few); above it, one scan of
# a bool grid (_marked) sorts out the repeats.
_FEW_TOUCHED = 32


def _zs_delete(buf, cand, ring, table):
    """One parallel Zhang-Suen subiteration over the candidate pixels (flat
    indices into the zero-bordered grid's buffer buf, all foreground).
    Deletes the deletable ones, sparing one pixel of any component that
    would vanish, and returns the flat indices of the deleted pixels'
    neighbors, 8 per deleted pixel."""
    nbrs = ring[:, None] + cand  # (8, n): row k holds neighbor _RING[k]
    hit = table[_codes(buf[nbrs])]
    dele, nbrs = cand[hit], nbrs.compress(hit, axis=1)
    if dele.size == 0:
        return nbrs.ravel()
    buf[dele] = False
    kept = buf[nbrs].any(axis=0)
    if not kept.all():
        # a deleted pixel kept no 8-neighbor, so its whole component may be gone
        _spare_doomed(buf, dele.tolist(), dele[~kept].tolist(), ring.tolist())
        nbrs = nbrs.compress(~buf[dele], axis=1)
    return nbrs.ravel()


def _zs_delete_few(px, cand, w, ring, table):
    """_zs_delete over Python ints, for a handful of candidates: px is the
    buffer as a memoryview, w the grid's width, ring and table are lists.
    Returns the deleted pixels' neighbors as a list."""
    dele = [i for i in cand if table[_code(px, i, w)]]
    for i in dele:
        px[i] = False
    alone = [i for i in dele if not _code(px, i, w)]
    if alone:
        _spare_doomed(px, dele, alone, ring)
        dele = [i for i in dele if not px[i]]
    return [i + d for i in dele for d in ring]


def _spare_doomed(buf, dele, alone, ring):
    """Put back the raster-first pixel of each component that the deletion
    of dele (flat indices, cleared in buf) wiped out. Such a component lost
    every pixel, so none of them kept a neighbor (alone, a subset of dele):
    walk the deleted pixels from each alone one, and the component is gone
    when every pixel the walk reaches is alone. All three are lists."""
    unwalked, lonely = set(dele), set(alone)
    for start in lonely:
        if start not in unwalked:  # an earlier walk reached it
            continue
        unwalked.remove(start)
        comp = [start]
        for i in comp:  # grows as the walk reaches deleted neighbors
            for j in (i + d for d in ring):
                if j in unwalked:
                    unwalked.remove(j)
                    comp.append(j)
        if lonely.issuperset(comp):
            buf[min(comp)] = True


def _marked(buf, touched, mark):
    """The distinct foreground pixels among the touched flat indices (a
    sequence of index arrays or lists), by a scan of mark: a bool grid the
    size of buf, all False before and after."""
    for t in touched:
        mark[t] = True
    mark &= buf
    cand = np.flatnonzero(mark)
    mark[cand] = False
    return cand


def _peel_square_blocks(grid):
    """Zhang-Suen can leave 2x2 squares in staircase regions; peel them off
    sequentially, visiting each round's block members in raster order and
    deleting the _PEEL ones, until no block is left or a round deletes
    nothing (no simple pixel left: give up rather than disconnect)."""
    buf = grid.reshape(-1)
    px = memoryview(buf)
    w = grid.shape[1]
    corner = (0, 1, w, w + 1)
    while True:
        # the zero border keeps a block's corners from wrapping across rows
        tops = np.flatnonzero(buf[: -w - 1] & buf[1:-w] & buf[w:-1] & buf[w + 1 :])
        if tops.size == 0:
            return
        changed = False
        for i in np.unique(tops[:, None] + corner).tolist():
            if px[i] and _PEEL[_code(px, i, w)]:
                px[i] = False
                changed = True
        if not changed:
            return


def thin_to_convergence(img):
    """Two-subiteration parallel thinning (Zhang-Suen conditions) iterated
    until a full pass deletes nothing, plus a square-block cleanup so that
    no 2x2 all-foreground block survives. Component count is preserved.

    A pixel's deletability under a step changes only when its 3x3
    neighborhood does, so after the first pass a subiteration re-tests just
    the foreground pixels next to the previous two subiterations' deletions
    (touched). It finds and tests them in one of two regimes, by how many
    indices were touched; see _FEW_TOUCHED. The mark scan costs in
    proportion to the canvas, so callers thin a canvas cropped to the ink
    or a NORM_SIZE one, as preprocess_glyph and normalize do."""
    grid, ring = _bordered(img)
    buf = grid.reshape(-1)
    px, w, ring_list = memoryview(buf), grid.shape[1], ring.tolist()
    mark = np.zeros(buf.size, dtype=bool)  # scratch for _marked
    # the first pass tests every pixel; touched holds the neighbors of the
    # last two subiterations' deletions
    touched = [_zs_delete(buf, np.flatnonzero(buf), ring, table) for table in _ZS_TABLES]
    changed = any(map(len, touched))
    while changed:
        changed = False
        for step in (0, 1):
            n = len(touched[0]) + len(touched[1])
            if n <= _FEW_TOUCHED:
                cand = [i for i in set(touched[0]).union(touched[1]) if px[i]]
                around = _zs_delete_few(px, cand, w, ring_list, _ZS_LISTS[step])
            else:
                around = _zs_delete(buf, _marked(buf, touched, mark), ring, _ZS_TABLES[step])
            touched = [touched[1], around]
            changed = changed or len(around) > 0
    _peel_square_blocks(grid)
    return grid[1:-1, 1:-1].copy()


def _walk_spur(buf, start, ring, max_spur):
    """Follow a branch of the bordered grid's buffer from an endpoint until
    the path forks (the junction anchor); return the spur's flat indices if
    that happens within max_spur steps, None for dead ends (no junction) or
    longer branches."""
    path = [start]
    prev = None
    cur = start
    while len(path) <= max_spur:
        nbrs = [j for j in cur + ring if buf[j] and j != prev]
        if len(nbrs) == 0:
            return None  # isolated stroke, nothing to anchor the spur
        if len(nbrs) >= 2:
            return path  # cur attaches to the main structure
        prev, cur = cur, nbrs[0]
        path.append(cur)
    return None


def prune(img, max_spur):
    """Delete junction-anchored spurs of length <= max_spur, repeatedly.
    Branches with no junction anchor (isolated strokes) are kept. A spur
    ends on a pixel with three or more neighbors, which it had at the start
    of the round (deletions only lower counts), fewer than max_spur rows and
    columns from the endpoint: endpoints with none that close are not walked."""
    grid, ring = _bordered(img)
    buf = grid.reshape(-1)
    w = grid.shape[1]
    changed = max_spur > 0
    while changed:
        changed = False
        fg = np.flatnonzero(buf)
        is_end, is_junction = ends_and_junctions(buf, ring, fg)
        ends = fg[is_end]
        (er, ec), (fr, fc) = np.divmod(ends, w), np.divmod(fg[is_junction], w)
        near = (abs(er[:, None] - fr) < max_spur) & (abs(ec[:, None] - fc) < max_spur)
        # a walk deletes only its start among this round's endpoints: every
        # later pixel of a spur has two or more neighbors
        for i in ends[near.any(axis=1)]:
            spur = _walk_spur(buf, i, ring, max_spur)
            if spur is not None:
                buf[spur] = False
                changed = True
    return grid[1:-1, 1:-1].copy()


# ---------------------------------------------------------------------------
# Normalization


def _axis_scale(img, axis, target):
    src = img.shape[axis]
    if src == target:
        return img
    if src < target:
        # growing: each source pixel paints its whole destination block
        idx = np.arange(src)
        reps = ((idx + 1) * target) // src - (idx * target) // src
        return np.repeat(img, reps, axis=axis)
    # shrinking: max-pool source groups so thin strokes never disappear. A
    # group holds at most ceil(src/target) pixels: OR its k-th (or last) ones
    starts = (np.arange(target) * src + target - 1) // target
    last = np.append(starts[1:], src) - 1
    out = np.take(img, starts, axis=axis)
    for k in range(1, -(-src // target)):
        out |= np.take(img, np.minimum(starts + k, last), axis=axis)
    return out


def shrink_to_frame(img):
    """img block-ORed down by k, its long side over NORM_SIZE rounded half
    up, when k >= 2: the max-pool of normalize, to ceil(side / k) pixels per
    axis, so a k-fold pixel replication comes back exactly. An image whose
    long side is under 1.5 NORM_SIZE is returned as it is."""
    k = (max(img.shape) + NORM_SIZE // 2) // NORM_SIZE
    if k < 2:
        return img
    h, w = img.shape
    return _axis_scale(_axis_scale(img, 0, -(-h // k)), 1, -(-w // k))


def normalize(img):
    """Crop to the ink, scale to NORM_SIZE square (forward block mapping, the
    nearest-neighbor inverse map), then re-thin to one-pixel width.

    Thinning erodes blunt stroke ends, which at large upscales can pull the
    skeleton more than a pixel off the frame edges; a couple of crop/rescale
    passes stretch it back so the result fills the frame again: it does when
    each edge has ink within two pixels of it."""
    glyph = crop_to_ink(img)  # raises EmptyImageError on blank input
    for _ in range(3):
        scaled = _axis_scale(_axis_scale(glyph, 0, NORM_SIZE), 1, NORM_SIZE)
        skel = thin_to_convergence(scaled)
        if skel[:2].any() and skel[-2:].any() and skel[:, :2].any() and skel[:, -2:].any():
            break
        glyph = crop_to_ink(skel)
    return skel
