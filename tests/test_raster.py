import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from devoc import raster, synth
from devoc.raster import DimensionMismatchError, EmptyImageError, MalformedHeaderError

from conftest import (
    brute_neighbor_count,
    flood_fill_components,
    has_full_2x2_block,
    ink_box,
    random_blobs,
    random_skeleton,
)


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(p)


class TestPbm:
    def test_p1_basic(self, tmp_path):
        img = raster.load_image(write(tmp_path, "a.pbm", "P1\n2 2\n1 0\n0 1"))
        assert img.shape == (2, 2)
        assert img[0, 0] and img[1, 1]
        assert not img[0, 1] and not img[1, 0]

    def test_p1_single_background(self, tmp_path):
        img = raster.load_image(write(tmp_path, "a.pbm", "P1\n1 1\n0"))
        assert img.shape == (1, 1) and not img.any()

    def test_p1_pixel_count_mismatch(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            raster.load_image(write(tmp_path, "a.pbm", "P1\n3 3\n1 0 1 0 1 0 1 0"))

    def test_p1_comments_and_packed_digits(self, tmp_path):
        img = raster.load_image(write(tmp_path, "a.pbm", "P1\n# hi\n2 2 # dims\n1001"))
        assert img[0, 0] and img[1, 1] and not img[0, 1]

    def test_p1_non_digit_pixel_byte(self, tmp_path):
        with pytest.raises(MalformedHeaderError, match="bad P1 pixel byte b'2'"):
            raster.load_image(write(tmp_path, "a.pbm", "P1\n2 2\n1 0 # 2 in a comment\n2 1"))

    def test_bad_magic(self, tmp_path):
        with pytest.raises(MalformedHeaderError):
            raster.load_image(write(tmp_path, "a.pbm", "P7\n1 1\n0"))

    def test_p4_round_trip_via_bits(self, tmp_path):
        # 10 wide so the row padding path is exercised
        rng = np.random.default_rng(7)
        img = rng.random((5, 10)) < 0.4
        packed = np.packbits(img, axis=1)
        data = b"P4\n10 5\n" + packed.tobytes()
        got = raster.load_image(write(tmp_path, "a.pbm", data))
        assert np.array_equal(got, img)

    def test_p4_truncated(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            raster.load_image(write(tmp_path, "a.pbm", b"P4\n10 5\n\x00\x01"))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.random((13, 17)) < 0.3
        path = str(tmp_path / "rt.pbm")
        raster.save_pbm(path, img)
        assert np.array_equal(raster.load_image(path), img)

    def test_missing_file(self, tmp_path):
        with pytest.raises(raster.RasterError):
            raster.load_image(str(tmp_path / "nope.pbm"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_comments_and_whitespace_between_pixels(self, tmp_path_factory, data):
        h = data.draw(st.integers(1, 6))
        w = data.draw(st.integers(1, 6))
        img = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))).reshape(h, w)
        path = tmp_path_factory.getbasetemp() / "spaced.pbm"
        raster.save_pbm(str(path), img)
        magic, dims, body = path.read_bytes().split(b"\n", 2)
        seps = st.sampled_from([b"", b" ", b"\t", b"\r\n", b"\n\n", b" # 0 1 #\n", b"#\n"])
        spaced = b"".join(bytes([d]) + data.draw(seps) for d in body.replace(b"\n", b""))
        path.write_bytes(magic + b"\n" + dims + b"\n" + spaced)
        assert np.array_equal(raster.load_image(str(path)), img)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([b"", b"P1", b"P2", b"P4", b"P5", b"P1 3 2\n", b"P5 2 2 255\n"]), st.binary(max_size=64))
    def test_arbitrary_bytes_raise_only_raster_errors(self, tmp_path_factory, magic, tail):
        path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
        path.write_bytes(magic + tail)
        try:
            img = raster.load_image(str(path))
        except raster.RasterError:
            return
        assert img.dtype == bool and img.ndim == 2


class TestAtomicWrite:
    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(OSError):
            raster.write_utf8(str(target), "data")
        assert sorted(os.listdir(tmp_path)) == before


class TestPgm:
    def test_p2_threshold_darker_is_foreground(self, tmp_path):
        img = raster.load_image(write(tmp_path, "a.pgm", "P2\n3 1\n255\n0 127 255"))
        assert img.tolist() == [[True, True, False]]

    def test_p5_binary(self, tmp_path):
        data = b"P5\n2 2\n255\n" + bytes([0, 200, 10, 255])
        img = raster.load_image(write(tmp_path, "a.pgm", data))
        assert img.tolist() == [[True, False], [True, False]]

    def test_load_image_dispatch(self, tmp_path):
        pbm = write(tmp_path, "a.pbm", "P1\n1 1\n1")
        pgm = write(tmp_path, "a.pgm", "P2\n1 1\n255\n0")
        assert raster.load_image(pbm)[0, 0]
        assert raster.load_image(pgm)[0, 0]
        with pytest.raises(MalformedHeaderError):
            raster.load_image(write(tmp_path, "a.txt", "hello"))


class _TokenReader:
    """Whitespace/comment-aware token scanner over a netpbm buffer."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def next_token(self):
        buf, n = self.buf, len(self.buf)
        i = self.pos
        while i < n:
            c = buf[i : i + 1]
            if c in b" \t\r\n":
                i += 1
            elif c == b"#":
                j = buf.find(b"\n", i)
                i = n if j < 0 else j + 1
            else:
                break
        if i >= n:
            raise MalformedHeaderError("unexpected end of header")
        j = i
        while j < n and buf[j : j + 1] not in b" \t\r\n#":
            j += 1
        self.pos = j
        return buf[i:j]

    def next_int(self):
        tok = self.next_token()
        try:
            return int(tok)
        except ValueError:
            raise MalformedHeaderError("expected integer, got %r" % tok)


def reference_parse_p2(buf):
    """The per-token P2 reader: one _TokenReader.next_int() per pixel."""
    rd = _TokenReader(buf)
    assert rd.next_token() == b"P2"
    width, height, maxval = rd.next_int(), rd.next_int(), rd.next_int()
    vals = []
    for _ in range(width * height):
        try:
            vals.append(rd.next_int())
        except MalformedHeaderError:
            raise DimensionMismatchError("P2 raster truncated")
    return np.array(vals).reshape(height, width) <= maxval / 2


def _outcome(parse, buf):
    """The parsed grid as nested lists, or the class of the exception raised."""
    try:
        return parse(buf).tolist()
    except Exception as exc:
        return type(exc)


class TestP2MatchesTokenLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bodies(self, data):
        w, h = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        maxval = data.draw(st.integers(1, 300))
        token = st.one_of(
            st.integers(-3, 400).map(lambda v: b"%d" % v),
            st.sampled_from([b"+7", b"007", b"1_0", b"0x1", b"x", b"\x0b9", b"9\x0c", b"\x0b", b"1e3", b"9" * 25]),
        )
        sep = st.sampled_from([b" ", b"\t", b"\r\n", b"\n", b"  ", b" #c 1\n", b"#\n", b"# 5", b"\x0b", b"\r"])
        n = data.draw(st.integers(0, w * h + 2))
        body = b"".join(data.draw(token) + data.draw(sep) for _ in range(n))
        buf = b"P2\n%d %d\n%d\n" % (w, h, maxval) + body
        assert _outcome(raster._parse, buf) == _outcome(reference_parse_p2, buf)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_cuts_split_no_token_or_comment(self, monkeypatch, chunk):
        p2 = b"P2\n# c\n3 2\n255\n0 12#7 7\n 255\t\r\n#x\n100\n 200 3\n"
        p1 = b"P1\n3 2\n1 0#1 1\n1\n# 0\n0 01\n"
        # one-line bodies: a comment can only end them
        p2_line = b"P2\n3 2\n255\n0 12\t255  100\r200 3#7 7 0"
        p1_line = b"P1\n3 2\n1 0\t1  0 0\r1 # 0 0 1"
        monkeypatch.setattr(raster, "_CHUNK", chunk)
        for p2 in (p2, p2_line):
            assert _outcome(raster._parse, p2) == _outcome(reference_parse_p2, p2) == [[1, 1, 0], [1, 0, 1]]
        for p1 in (p1, p1_line):
            assert _outcome(raster._parse, p1) == [[1, 0, 1], [0, 0, 1]]

    def test_wrapped_file(self):
        vals = np.random.default_rng(3).integers(0, 256, size=(37, 41))
        lines = [" ".join(map(str, row[i : i + 17])) for row in vals for i in range(0, 41, 17)]
        buf = ("P2\n# made by hand\n41 37\n255\n" + "\n".join(lines) + "\n").encode()
        out = raster._parse(buf)
        assert out.dtype == bool
        assert np.array_equal(out, reference_parse_p2(buf))
        assert np.array_equal(out, vals <= 127.5)


def _traced(buf):
    """raster._parse(buf), or the class of what it raised, and the peak bytes
    traced during the call."""
    tracemalloc.start()
    try:
        out = raster._parse(buf)
    except Exception as exc:
        out = type(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, peak


class TestNetpbmMemory:
    @pytest.mark.parametrize(
        "magic, maxval", [(b"P1", b""), (b"P2", b"255"), (b"P4", b""), (b"P5", b"255"), (b"P5", b"65535")]
    )
    def test_header_alone_allocates_nothing(self, magic, maxval):
        # 10^10 pixels promised, three delivered: refused before any raster-sized allocation
        out, peak = _traced(b"%s\n100000 100000\n%s\n0 1 1\n" % (magic, maxval))
        assert out is DimensionMismatchError
        assert peak < 1 << 20

    @pytest.mark.parametrize("sep", [b" ", b"\n"], ids=["spaced", "one-per-line"])
    @pytest.mark.parametrize("magic, maxval", [(b"P1", 2), (b"P2", 256)], ids=["P1", "P2"])
    def test_text_body_in_bounded_memory(self, magic, maxval, sep):
        # one value per token, never held as a list of all of them
        vals = np.random.default_rng(5).integers(0, maxval, size=(1000, 1000))
        head = b"P1\n1000 1000\n" if magic == b"P1" else b"P2\n1000 1000\n255\n"
        out, peak = _traced(head + sep.join(b"%d" % v for v in vals.ravel().tolist()) + b"\n")
        assert np.array_equal(out, vals == 1 if magic == b"P1" else vals <= 127.5)
        assert peak <= 10 << 20


class TestGeometry:
    def test_bbox_single_pixel(self):
        img = np.zeros((10, 10), dtype=bool)
        img[5, 7] = True
        assert raster.crop_to_ink(img).tolist() == [[True]]

    def test_bbox_two_pixels(self):
        img = np.zeros((12, 25), dtype=bool)
        img[2, 3] = img[10, 20] = True
        expect = np.zeros((9, 18), dtype=bool)
        expect[0, 0] = expect[-1, -1] = True
        assert np.array_equal(raster.crop_to_ink(img), expect)

    def test_bbox_empty(self):
        with pytest.raises(EmptyImageError):
            raster.crop_to_ink(np.zeros((4, 4), dtype=bool))

    def test_crop_identity(self):
        img = np.random.default_rng(0).random((6, 8)) < 0.5
        img[0, 0] = img[-1, -1] = True  # ink in the first and last row and column
        out = raster.crop_to_ink(img)
        assert np.array_equal(out, img)
        out[0, 0] = False
        assert img[0, 0]  # a copy, not a view

    def test_crop_single(self):
        img = np.zeros((3, 3), dtype=bool)
        img[0, 0] = True
        assert raster.crop_to_ink(img).tolist() == [[True]]

    def test_neighbor_count_examples(self):
        img = np.zeros((5, 5), dtype=bool)
        img[2, 2] = True
        assert ends_and_junctions_at_ink(img) == {(2, 2): (False, False)}  # no neighbor
        line = np.zeros((3, 9), dtype=bool)
        line[1, :] = True
        ends = {(1, c): (c in (0, 8), False) for c in range(9)}  # 1, 2, ..., 2, 1 neighbors
        assert ends_and_junctions_at_ink(line) == ends
        cross = np.zeros((5, 5), dtype=bool)
        cross[2, :] = True
        cross[:, 2] = True
        assert ends_and_junctions_at_ink(cross)[2, 2] == (False, True)  # four neighbors

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_neighbor_count_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.random((7, 9)) < 0.5
        classes = ends_and_junctions_at_ink(img)
        assert sorted(classes) == [(r, c) for r in range(7) for c in range(9) if img[r, c]]
        for (r, c), (end, junction) in classes.items():
            n = brute_neighbor_count(img, r, c)
            assert (end, junction) == (n == 1, n >= 3)


def ends_and_junctions_at_ink(img):
    """{(row, col): (open end, junction)} for every ink pixel of img, from
    raster.ends_and_junctions."""
    grid, ring = raster._bordered(img)
    fg = np.flatnonzero(grid)
    ends, junctions = raster.ends_and_junctions(grid.reshape(-1), ring, fg)
    rows, cols = np.divmod(fg, grid.shape[1])
    return {(r - 1, c - 1): (bool(e), bool(j)) for r, c, e, j in zip(rows.tolist(), cols.tolist(), ends, junctions)}


class TestThicken:
    def test_center_pixel(self):
        img = np.zeros((5, 5), dtype=bool)
        img[2, 2] = True
        out = raster.thicken(img)
        assert out.sum() == 9
        assert out[1:4, 1:4].all()

    def test_all_background(self):
        assert not raster.thicken(np.zeros((4, 4), dtype=bool)).any()

    def test_all_foreground_fixed_point(self):
        img = np.ones((4, 4), dtype=bool)
        assert raster.thicken(img).all()

    def test_superset(self):
        img = np.random.default_rng(5).random((9, 9)) < 0.3
        out = raster.thicken(img)
        assert (out | img).sum() == out.sum()


class TestThin:
    def test_thin_line_unchanged(self):
        img = np.zeros((5, 20), dtype=bool)
        img[2, 2:18] = True
        assert np.array_equal(raster.thin_to_convergence(img), img)

    def test_solid_bar(self):
        img = np.zeros((7, 24), dtype=bool)
        img[2:5, 2:22] = True
        out = raster.thin_to_convergence(img)
        assert not has_full_2x2_block(out)
        assert flood_fill_components(out) == flood_fill_components(img) == 1
        assert out.any()

    def test_all_background(self):
        assert not raster.thin_to_convergence(np.zeros((6, 6), dtype=bool)).any()

    def test_isolated_square_survives_as_component(self):
        # parallel Zhang-Suen alone would delete all four pixels at once
        img = np.zeros((6, 6), dtype=bool)
        img[2:4, 2:4] = True
        out = raster.thin_to_convergence(img)
        assert flood_fill_components(out) == 1
        assert not has_full_2x2_block(out)

    def test_random_blobs_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            img = random_blobs(rng, size=80, n_discs=5, max_radius=10)
            out = raster.thin_to_convergence(img)
            assert not has_full_2x2_block(out)
            assert flood_fill_components(out) == flood_fill_components(img)

    def test_thicken_then_thin_preserves_components(self):
        # two thin strokes well clear of each other
        img = np.zeros((30, 30), dtype=bool)
        img[5, 2:28] = True
        img[20, 2:28] = True
        out = raster.thin_to_convergence(raster.thicken(img))
        assert flood_fill_components(out) == 2


# The oracles below are the whole-image and per-pixel versions of the
# thinner, the square-block cleanup and the spur pruner, written with
# bounds-checked (row, col) helpers. They share no code with devoc.raster.

# 8-neighbor offsets in Zhang-Suen order P2..P9 (N, NE, E, SE, S, SW, W, NW)
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _ring_planes(img):
    p = np.pad(img, 1)
    h, w = img.shape
    return tuple(p[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w] for dr, dc in _RING)


def _reference_spare_doomed(skel, dele):
    # parallel deletion can wipe out tiny components (isolated 2x2 squares);
    # keep one pixel of any component that would vanish entirely
    lab, n = ndimage.label(skel, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return
    sizes = np.bincount(lab.ravel(), minlength=n + 1)
    killed = np.bincount(lab[dele], minlength=n + 1)
    doomed = np.nonzero((killed == sizes) & (sizes > 0))[0]
    for comp in doomed:
        if comp == 0:
            continue
        rr, cc = np.nonzero(lab == comp)
        dele[rr[0], cc[0]] = False


def _reference_subpass(skel, step):
    ring = _ring_planes(skel)
    stack = np.stack(ring).astype(np.uint8)
    B = stack.sum(axis=0)
    A = ((stack == 0) & (np.roll(stack, -1, axis=0) == 1)).sum(axis=0)
    P2, _, P4, _, P6, _, P8, _ = ring
    if step == 1:
        cond = ~(P2 & P4 & P6) & ~(P4 & P6 & P8)
    else:
        cond = ~(P2 & P4 & P8) & ~(P2 & P6 & P8)
    dele = skel & (B >= 2) & (B <= 6) & (A == 1) & cond
    if not dele.any():
        return False
    _reference_spare_doomed(skel, dele)
    if not dele.any():
        return False
    skel &= ~dele
    return True


def _ring_values(skel, r, c):
    """The 8 neighbors of (r, c) in _RING order; off-image counts as background."""
    h, w = skel.shape
    out = []
    for dr, dc in _RING:
        rr, cc = r + dr, c + dc
        out.append(bool(skel[rr, cc]) if 0 <= rr < h and 0 <= cc < w else False)
    return out


def _is_simple(skel, r, c):
    # deletable without splitting the local foreground: exactly one 0->1
    # transition around the ring (Rutovitz crossing number == 1)
    ring = _ring_values(skel, r, c)
    trans = sum(1 for a, b in zip(ring, ring[1:] + ring[:1]) if not a and b)
    return trans == 1


def reference_dissolve(skel):
    # Zhang-Suen can leave 2x2 squares in staircase regions; peel them off
    # sequentially, deleting only simple non-endpoint pixels
    while True:
        blocks = skel[:-1, :-1] & skel[1:, :-1] & skel[:-1, 1:] & skel[1:, 1:]
        if not blocks.any():
            return
        member = np.zeros_like(skel)
        member[:-1, :-1] |= blocks
        member[1:, :-1] |= blocks
        member[:-1, 1:] |= blocks
        member[1:, 1:] |= blocks
        changed = False
        for r, c in zip(*np.nonzero(member)):
            if not skel[r, c]:
                continue
            if not _in_full_block(skel, r, c):
                continue
            if brute_neighbor_count(skel, r, c) >= 2 and _is_simple(skel, r, c):
                skel[r, c] = False
                changed = True
        if not changed:
            return  # no simple pixel left; give up rather than disconnect


def _in_full_block(skel, r, c):
    h, w = skel.shape
    for r0 in (r - 1, r):
        for c0 in (c - 1, c):
            if 0 <= r0 and r0 + 1 < h and 0 <= c0 and c0 + 1 < w:
                if skel[r0, c0] and skel[r0 + 1, c0] and skel[r0, c0 + 1] and skel[r0 + 1, c0 + 1]:
                    return True
    return False


def reference_thin(img):
    """Whole-image Zhang-Suen: every subiteration tests every pixel and
    labels components whenever it deletes anything. The frontier thinner
    must reproduce it exactly."""
    skel = np.array(img, dtype=bool)
    while True:
        c1 = _reference_subpass(skel, 1)
        c2 = _reference_subpass(skel, 2)
        if not (c1 or c2):
            break
    reference_dissolve(skel)
    return skel


def _fg_neighbors(img, r, c):
    h, w = img.shape
    return [(r + dr, c + dc) for dr, dc in _RING if 0 <= r + dr < h and 0 <= c + dc < w and img[r + dr, c + dc]]


def _walk_spur(img, r, c, max_spur):
    """Follow a branch from an endpoint until the path forks (the junction
    anchor); return the spur pixels if that happens within max_spur steps,
    None for dead ends (no junction) or longer branches."""
    path = [(r, c)]
    prev = None
    cur = (r, c)
    while len(path) <= max_spur:
        nbrs = [p for p in _fg_neighbors(img, *cur) if p != prev]
        if len(nbrs) == 0:
            return None  # isolated stroke, nothing to anchor the spur
        if len(nbrs) >= 2:
            return path  # cur attaches to the main structure
        prev, cur = cur, nbrs[0]
        path.append(cur)
    return None


def reference_prune(img, max_spur=3):
    """Delete junction-anchored spurs of length <= max_spur, repeatedly.
    Branches with no junction anchor (isolated strokes) are kept."""
    out = np.array(img, dtype=bool)
    if max_spur <= 0:
        return out
    changed = True
    while changed:
        changed = False
        counts = sum(plane.astype(np.int32) for plane in _ring_planes(out))
        for r, c in np.argwhere(out & (counts == 1)):
            if not out[r, c]:
                continue
            spur = _walk_spur(out, int(r), int(c), max_spur)
            if spur is not None:
                for rr, cc in spur:
                    out[rr, cc] = False
                changed = True
    return out


def reference_axis_scale(img, axis, target):
    """Resize one axis by the forward block map: a max-pool with
    np.maximum.reduceat when shrinking, np.repeat when growing."""
    src = img.shape[axis]
    if src == target:
        return img
    idx = np.arange(src)
    if src < target:
        reps = ((idx + 1) * target) // src - (idx * target) // src
        return np.repeat(img, reps, axis=axis)
    dest = (idx * target) // src
    starts = np.searchsorted(dest, np.arange(target))
    return np.maximum.reduceat(img.astype(np.uint8), starts, axis=axis).astype(bool)


def reference_normalize(img):
    """normalize with the oracle axis scaling."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raster, "_axis_scale", reference_axis_scale)
        return raster.normalize(img)


def box_loop_normalize(img):
    """normalize's loop over an explicit bounding box: crop to it, and stop
    once it reaches within one pixel of every frame edge."""
    r0, r1, c0, c1 = ink_box(img)
    glyph = img[r0 : r1 + 1, c0 : c1 + 1]
    for _ in range(3):
        scaled = raster._axis_scale(raster._axis_scale(glyph, 0, raster.NORM_SIZE), 1, raster.NORM_SIZE)
        skel = raster.thin_to_convergence(scaled)
        r0, r1, c0, c1 = ink_box(skel)
        if r0 <= 1 and c0 <= 1 and r1 >= raster.NORM_SIZE - 2 and c1 >= raster.NORM_SIZE - 2:
            break
        glyph = skel[r0 : r1 + 1, c0 : c1 + 1]
    return skel


def block_or(img, k):
    """img shrunk k times: each output pixel ORs a k x k block."""
    h, w = img.shape
    padded = np.zeros((-(-h // k) * k, -(-w // k) * k), dtype=bool)
    padded[:h, :w] = img
    return padded.reshape(padded.shape[0] // k, k, padded.shape[1] // k, k).any(axis=(1, 3))


def assert_matches_reference(img):
    out = raster.thin_to_convergence(img)
    assert out.dtype == bool
    assert np.array_equal(out, reference_thin(img))


def assert_prune_matches_reference(img, max_spur):
    out = raster.prune(img, max_spur)
    assert out.dtype == bool
    assert np.array_equal(out, reference_prune(img, max_spur))


def random_array(h, w, density, seed):
    return np.random.default_rng(seed).random((h, w)) < density


def diagonal_band(n, size):
    """A size x size canvas holding an n-px diagonal band 2 px wide."""
    img = np.zeros((size, size), dtype=bool)
    k = np.arange(n)
    img[2 + k, 2 + k] = img[2 + k, 3 + k] = True
    return img


def counting(monkeypatch, name):
    """Patch raster.<name> to record each call; returns the record."""
    calls = []
    fn = getattr(raster, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(raster, name, counted)
    return calls


class TestThinMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 48), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    @example(22, 25, 0.8125, 55571)  # few -> none -> few deleted, then a mark scan reads an empty list
    def test_random_arrays(self, h, w, density, seed):
        assert_matches_reference(random_array(h, w, density, seed))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 48), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_square_block_cleanup_on_raw_arrays(self, h, w, density, seed):
        # raw random arrays are full of 2x2 blocks, which thinned glyphs
        # almost never keep, so this is where the cleanup does its work
        img = random_array(h, w, density, seed)
        grid = raster._bordered(img)[0]
        raster._peel_square_blocks(grid)
        expect = img.copy()
        reference_dissolve(expect)
        assert np.array_equal(grid[1:-1, 1:-1].view(bool), expect)

    def test_corpus_glyphs_at_one_pixel_and_thick_pen(self, templates):
        for s in synth.generate_corpus(templates, 2, amplitude=2):
            thick = raster.thicken(np.repeat(np.repeat(s.image, 2, axis=0), 2, axis=1))
            for img in (s.image, thick):
                glyph = raster.thicken(raster.crop_to_ink(img))
                assert_matches_reference(glyph)
                skel = raster.thin_to_convergence(glyph)
                for max_spur in (1, 3, 6):
                    assert_prune_matches_reference(skel, max_spur)
                pruned = raster.prune(skel, 3)
                assert np.array_equal(raster.normalize(pruned), reference_normalize(pruned))

    def test_component_check_runs_only_when_a_component_can_vanish(self, monkeypatch):
        calls = []
        spare = raster._spare_doomed

        def counting_spare(*args):
            calls.append(1)
            spare(*args)

        monkeypatch.setattr(raster, "_spare_doomed", counting_spare)
        img = np.zeros((12, 30), dtype=bool)
        img[2:5, 2:28] = True
        raster.thin_to_convergence(img)
        assert not calls
        img[8:10, 12:14] = True  # isolated 2x2 square: all four pixels are deletable at once
        out = raster.thin_to_convergence(img)
        assert calls
        monkeypatch.setattr(raster, "_spare_doomed", spare)
        assert np.array_equal(out, reference_thin(img))
        assert out[8:10, 12:14].sum() == 1

    def test_two_pixel_diagonal_erodes_to_two_pixels(self):
        # Zhang-Suen eats one pixel of a 2-px diagonal per subiteration
        img = diagonal_band(80, 85)
        out = raster.thin_to_convergence(img)
        assert out.sum() == 2
        assert np.array_equal(out, reference_thin(img))

    @pytest.mark.parametrize("step", [1, 2])
    def test_subiteration_spares_an_isolated_square(self, monkeypatch, step):
        # every pixel of an isolated 2x2 square is deletable at once; the
        # subiteration must put back its raster-first pixel, as the oracle does
        img = np.zeros((6, 7), dtype=bool)
        img[2:4, 3:5] = True
        spares = counting(monkeypatch, "_spare_doomed")
        grid, ring = raster._bordered(img)
        buf = grid.reshape(-1)
        around = raster._zs_delete(buf, np.flatnonzero(buf), ring, raster._ZS_TABLES[step - 1])
        assert spares
        expect = img.copy()
        assert _reference_subpass(expect, step)
        assert np.array_equal(grid[1:-1, 1:-1], expect)
        assert np.argwhere(expect).tolist() == [[2, 3]]
        # the three deleted pixels' neighbors, 8 each
        assert around.size == 24

    def test_thick_pen_glyphs_take_the_mark_scan(self, templates, monkeypatch):
        # perfbench's pen: 2x replication, then one 3x3 dilation
        marked = counting(monkeypatch, "_marked")
        for s in synth.generate_corpus(templates, 1, amplitude=2, seed=3):
            thick = raster.thicken(np.repeat(np.repeat(s.image, 2, axis=0), 2, axis=1))
            before = len(marked)
            assert_matches_reference(raster.thicken(raster.crop_to_ink(thick)))
            assert len(marked) > before
            assert not marked[-1][2].any()  # the scan leaves its bool grid all False

    def test_band_on_a_huge_canvas_matches_reference(self):
        # an 80-px diagonal band 2 px wide thins one pixel per subiteration,
        # each a scan of the whole 2,000 x 2,000 grid: slow, same bytes
        small = diagonal_band(80, 85)
        img = np.zeros((2000, 2000), dtype=bool)
        img[1000:1085, 1500:1585] = small
        expect = np.zeros_like(img)
        expect[1000:1085, 1500:1585] = reference_thin(small)
        assert np.array_equal(raster.thin_to_convergence(img), expect)

    def test_block_on_a_huge_canvas_matches_reference(self):
        # each subiteration of a solid block scans the whole 2,000 x 2,000
        # grid: slow, same bytes
        small = np.zeros((44, 44), dtype=bool)
        small[2:42, 2:42] = True
        img = np.zeros((2000, 2000), dtype=bool)
        img[1000:1044, 1500:1544] = small
        expect = np.zeros_like(img)
        expect[1000:1044, 1500:1544] = reference_thin(small)
        assert np.array_equal(raster.thin_to_convergence(img), expect)

    def test_small_arrays_and_a_band_match_reference(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            h, w = rng.integers(1, 40, size=2)
            assert_matches_reference(random_array(h, w, rng.uniform(0.05, 0.95), seed))
        assert_matches_reference(diagonal_band(30, 35))


def test_numpy_alone_is_enough():
    # scipy is blocked, so importing it anywhere in devoc fails; the isolated
    # 2x2 square makes thinning take the vanishing-component path, and the
    # 2-px diagonal band thins one pixel per subiteration
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np, devoc.cli\n"
        "from devoc import raster\n"
        "img = np.zeros((12, 30), dtype=bool); img[2:5, 2:28] = True; img[8:10, 12:14] = True\n"
        "assert raster.thin_to_convergence(img)[8:10, 12:14].sum() == 1\n"
        "band = np.zeros((85, 85), dtype=bool); k = np.arange(80); band[2 + k, 2 + k] = band[2 + k, 3 + k] = True\n"
        "assert raster.thin_to_convergence(band).sum() == 2\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestPrune:
    def test_side_spur_removed(self):
        img = np.zeros((6, 20), dtype=bool)
        img[3, 2:18] = True
        img[2, 10] = img[1, 10] = True  # 2-pixel spur off the line
        out = raster.prune(img, max_spur=3)
        assert not out[2, 10] and not out[1, 10]
        assert out[3, 2:18].all()

    def test_isolated_short_line_kept(self):
        img = np.zeros((5, 5), dtype=bool)
        img[2, 1:4] = True  # no junction anchor anywhere
        assert np.array_equal(raster.prune(img, max_spur=3), img)

    def test_max_spur_zero_is_identity(self):
        img = np.zeros((6, 20), dtype=bool)
        img[3, 2:18] = True
        img[2, 10] = True
        assert np.array_equal(raster.prune(img, max_spur=0), img)

    def test_long_spur_kept(self):
        img = np.zeros((10, 20), dtype=bool)
        img[5, 2:18] = True
        img[0:5, 10] = True  # 5-pixel branch
        out = raster.prune(img, max_spur=3)
        assert out[0:5, 10].all()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 48),
        st.integers(1, 48),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
        st.integers(0, 6),
        st.booleans(),
    )
    def test_matches_reference(self, h, w, density, seed, max_spur, thinned):
        img = random_array(h, w, density, seed)
        assert_prune_matches_reference(raster.thin_to_convergence(img) if thinned else img, max_spur)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 6))
    def test_skeletons_with_many_spurs_match_reference(self, seed, n_spurs, max_spur):
        # short branches off random pixels, often two or more on one
        # junction, so that one round's walks see each other's deletions
        rng = np.random.default_rng(seed)
        skel = random_skeleton(rng, size=60)
        fg = np.argwhere(skel)
        if fg.size == 0:
            return
        for r, c in fg[rng.integers(0, len(fg), size=n_spurs)]:
            dr, dc = rng.integers(-1, 2, size=2)
            for k in range(1, rng.integers(2, 5)):
                if 0 <= r + k * dr < 60 and 0 <= c + k * dc < 60:
                    skel[r + k * dr, c + k * dc] = True
        assert_prune_matches_reference(skel, max_spur)


class TestNormalize:
    def test_dims_and_edges(self):
        img = np.zeros((37, 61), dtype=bool)
        img[3, 5:50] = True
        img[3:30, 49] = True
        out = raster.normalize(img)
        assert out.shape == (100, 100)
        assert not has_full_2x2_block(out)
        row_min, row_max, col_min, col_max = ink_box(out)
        # re-thinning may erode at most one pixel per edge
        assert row_min <= 1 and col_min <= 1
        assert row_max >= 98 and col_max >= 98

    def test_identity_scale_on_stable_skeleton(self):
        img = np.zeros((100, 100), dtype=bool)
        img[0, :] = True
        img[:, 0] = True
        assert np.array_equal(raster.normalize(img), img)

    def test_diagonal_upscale_matches_forward_map_oracle(self):
        img = np.zeros((50, 50), dtype=bool)
        for i in range(50):
            img[i, i] = True
        out = raster.normalize(img)
        # oracle: paint each source pixel's 2x2 destination block, then thin
        expect = np.zeros((100, 100), dtype=bool)
        for r in range(50):
            for c in range(50):
                if img[r, c]:
                    expect[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = True
        expect = raster.thin_to_convergence(expect)
        assert np.array_equal(out, expect)

    def test_shrink_matches_reduceat_for_every_source_size(self):
        rng = np.random.default_rng(5)
        for src in range(101, 401):
            img = rng.random((src, 9)) < rng.uniform(0.02, 0.5)
            for axis, grid in ((0, img), (1, img.T.copy())):
                out = raster._axis_scale(grid, axis, raster.NORM_SIZE)
                assert out.dtype == bool
                assert np.array_equal(out, reference_axis_scale(grid, axis, raster.NORM_SIZE))

    def test_shrink_to_frame_for_every_long_side(self):
        # k is the long side over NORM_SIZE, rounded half up (none below 2):
        # every shrunk image is under 1.5 NORM_SIZE on its long side, which
        # is what thinning's whole-canvas scan per subiteration relies on
        for side in range(1, 3001):
            k = max(1, math.floor(Fraction(side, raster.NORM_SIZE) + Fraction(1, 2)))
            n = -(-side // k)
            assert n < 1.5 * raster.NORM_SIZE
            ends = np.zeros(n, dtype=bool)
            ends[[0, -1]] = True  # the max-pool keeps the ink at both ends
            img = np.zeros((side, 3), dtype=bool)
            img[[0, -1], 1] = True
            out = raster.shrink_to_frame(img)
            assert out.shape == (n, -(-3 // k))
            assert np.array_equal(out.any(axis=1), ends)
            assert np.array_equal(raster.shrink_to_frame(img.T), out.T)

    def test_downscale_never_empties(self):
        img = np.zeros((400, 400), dtype=bool)
        img[200, 10:390] = True
        out = raster.normalize(img)
        assert out.any() and out.shape == (100, 100)

    def test_empty_raises(self):
        with pytest.raises(EmptyImageError):
            raster.normalize(np.zeros((10, 10), dtype=bool))

    def test_matches_the_box_loop(self, templates, monkeypatch):
        # glyphs shrunk 2x or 3x come back from the first upscale and thinning
        # off the frame edges, so normalize crops and rescales them again
        thins = counting(monkeypatch, "thin_to_convergence")
        passes = []
        inputs = [random_array(h, h + 7, 0.1, h) for h in range(3, 60, 4)]
        for s in synth.generate_corpus(templates, 3, amplitude=2, seed=4):
            thick = raster.thicken(np.repeat(np.repeat(s.image, 2, axis=0), 2, axis=1))
            inputs += [s.image, thick, block_or(s.image, 2), block_or(s.image, 3)]
        for img in inputs:
            expect = box_loop_normalize(img)
            before = len(thins)
            assert np.array_equal(raster.normalize(img), expect)
            passes.append(len(thins) - before)
        assert {1, 2, 3} <= set(passes)
