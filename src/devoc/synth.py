"""Deterministic synthetic glyphs with known structural ground truth.

Templates are stylized stroke sets (not calligraphy): each is a list of
polylines in unit coordinates (x right, y down) whose zero-jitter rendering
provably lands in its structural group. Twelve templates cover the four
groups that carry the reported results, three character classes each.
"""

from __future__ import annotations

import csv
import io
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import raster
from .structural import ShirorekhaKind, SpineKind, StructuralClass, group_name

CANVAS = 100


@dataclass(frozen=True)
class JitterSpec:
    amplitude: int = 0  # vertex perturbation in pixels, 0..3
    seed: int = 0


@dataclass(frozen=True)
class GlyphTemplate:
    id: str
    class_label: str
    strokes: tuple  # tuple of polylines; polyline = tuple of (x, y) in [0,1]
    truth: StructuralClass


@dataclass(frozen=True)
class Sample:
    image: np.ndarray
    class_label: str
    group: str
    split: str  # "train" or "test"
    template_id: str
    index: int

    @property
    def path(self):
        """Corpus-relative file path: <group>/<class_label>/<index:04d>.pbm."""
        return "%s/%s/%04d.pbm" % (self.group, self.class_label, self.index)


def mix_seed(*parts):
    """Stable cross-run seed derivation (Python's hash() is salted)."""
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def _bresenham(r0, c0, r1, c1):
    """Integer line pixels from (r0,c0) to (r1,c1), inclusive."""
    points = []
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        points.append((r, c))
        if r == r1 and c == c1:
            return points
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr


def render(template, jitter=JitterSpec()):
    """Rasterize the template's polylines at 100x100 with seeded vertex
    jitter, then thin. Identical (template, jitter) -> identical image."""
    rng = np.random.default_rng(jitter.seed)
    img = np.zeros((CANVAS, CANVAS), dtype=bool)
    a = jitter.amplitude
    for poly in template.strokes:
        verts = []
        for x, y in poly:
            r = int(round(y * (CANVAS - 1)))
            c = int(round(x * (CANVAS - 1)))
            if a > 0:
                r += int(rng.integers(-a, a + 1))
                c += int(rng.integers(-a, a + 1))
            verts.append((min(max(r, 0), CANVAS - 1), min(max(c, 0), CANVAS - 1)))
        for (r0, c0), (r1, c1) in zip(verts, verts[1:]):
            for r, c in _bresenham(r0, c0, r1, c1):
                img[r, c] = True
    return raster.thin_to_convergence(img)


# ---------------------------------------------------------------------------
# Template set

_FULL_END = StructuralClass(ShirorekhaKind.FULL, SpineKind.END)
_FULL_MID = StructuralClass(ShirorekhaKind.FULL, SpineKind.MID)
_FULL_NO = StructuralClass(ShirorekhaKind.FULL, SpineKind.NONE)
_PART_END = StructuralClass(ShirorekhaKind.PARTIAL, SpineKind.END)

_HEADLINE = ((0.0, 0.02), (1.0, 0.02))
_HEADLINE_PART = ((0.55, 0.02), (1.0, 0.02))
_SPINE_END = ((1.0, 0.02), (1.0, 1.0))
_SPINE_MID = ((0.55, 0.02), (0.55, 1.0))


def _tpl(name, truth, *body):
    strokes = []
    if truth.shirorekha == ShirorekhaKind.FULL:
        strokes.append(_HEADLINE)
    elif truth.shirorekha == ShirorekhaKind.PARTIAL:
        strokes.append(_HEADLINE_PART)
    if truth.spine == SpineKind.END:
        strokes.append(_SPINE_END)
    elif truth.spine == SpineKind.MID:
        strokes.append(_SPINE_MID)
    strokes.extend(body)
    return GlyphTemplate(name, name, tuple(strokes), truth)


def default_templates():
    """Twelve templates, three per Table-style group. Body strokes avoid
    near-vertical runs of 3/4 height (except the spines) and keep their
    feature points away from tile boundaries where possible."""
    return (
        # total shirorekha + end spine
        _tpl("cha", _FULL_END,
             ((0.45, 0.02), (0.15, 0.5)),
             ((0.15, 0.5), (0.7, 0.5)),
             ((0.7, 0.5), (0.35, 0.95))),
        _tpl("kha", _FULL_END,
             ((0.25, 0.02), (0.1, 0.35)),
             ((0.1, 0.35), (0.45, 0.4)),
             ((0.45, 0.4), (0.2, 0.9)),
             ((0.45, 0.4), (0.8, 0.75))),
        _tpl("ssa", _FULL_END,
             ((0.6, 0.02), (0.12, 0.62)),
             ((0.12, 0.25), (0.8, 0.82)),
             ((0.35, 0.85), (0.75, 0.95))),
        # total shirorekha + mid spine
        _tpl("pha", _FULL_MID,
             ((0.3, 0.02), (0.12, 0.4)),
             ((0.12, 0.4), (0.4, 0.58)),
             ((0.65, 0.3), (0.9, 0.55))),
        _tpl("ka", _FULL_MID,
             ((0.35, 0.02), (0.1, 0.6)),
             ((0.1, 0.3), (0.45, 0.72)),
             ((0.85, 0.25), (0.68, 0.45)),
             ((0.68, 0.45), (0.9, 0.72))),
        _tpl("jha", _FULL_MID,
             ((0.1, 0.2), (0.4, 0.45)),
             ((0.4, 0.45), (0.1, 0.7)),
             ((0.1, 0.7), (0.4, 0.92)),
             ((0.75, 0.32), (0.75, 0.62))),
        # total shirorekha + no spine
        _tpl("ba", _FULL_NO,
             ((0.2, 0.02), (0.2, 0.6)),
             ((0.2, 0.6), (0.8, 0.97)),
             ((0.5, 0.3), (0.8, 0.6))),
        _tpl("ha", _FULL_NO,
             ((0.7, 0.02), (0.3, 0.5)),
             ((0.1, 0.75), (0.9, 0.75)),
             ((0.5, 0.5), (0.5, 0.97))),
        _tpl("tta", _FULL_NO,
             ((0.6, 0.02), (0.25, 0.3)),
             ((0.25, 0.3), (0.7, 0.55)),
             ((0.7, 0.55), (0.3, 0.97))),
        # partial shirorekha + end spine (body hangs lower left, clear of
        # the headline)
        _tpl("dha", _PART_END,
             ((0.0, 0.45), (0.5, 0.3)),
             ((0.5, 0.3), (0.2, 0.75)),
             ((0.2, 0.75), (0.55, 0.95))),
        _tpl("tha", _PART_END,
             ((0.0, 0.3), (0.35, 0.55)),
             ((0.35, 0.55), (0.0, 0.8)),
             ((0.35, 0.55), (0.6, 0.55))),
        _tpl("bha", _PART_END,
             ((0.05, 0.25), (0.05, 0.7)),
             ((0.05, 0.7), (0.5, 0.9)),
             ((0.3, 0.4), (0.5, 0.6))),
    )


# ---------------------------------------------------------------------------
# Corpus generation

MANIFEST_NAME = "manifest.csv"


def split_of(index):
    """Deterministic 70/30 split by index (indices 0..6 of every 10 train)."""
    return "train" if index % 10 < 7 else "test"


def generate_corpus(templates, per_class, amplitude=0, seed=0):
    """per_class jittered renderings per template; pure function of its
    arguments (per-sample seeds derive from (seed, template id, index))."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1, got %d" % per_class)
    if not 0 <= amplitude <= 3:
        raise ValueError("amplitude must be in 0..3, got %d" % amplitude)
    samples = []
    for tpl in templates:
        group = group_name(tpl.truth)
        for i in range(per_class):
            jitter = JitterSpec(amplitude, mix_seed(seed, tpl.id, i))
            samples.append(
                Sample(render(tpl, jitter), tpl.class_label, group, split_of(i), tpl.id, i)
            )
    return samples


def write_corpus(samples, root):
    """Layout: <root>/<Sample.path> + manifest.csv with columns
    path,class_label,group,split. A field the manifest cannot hold raises
    ValueError before anything is written."""
    manifest = os.path.join(root, MANIFEST_NAME)
    rows = [(s.path, s.class_label, s.group, s.split) for s in samples]
    for row in rows:
        raster.check_text_fields(row, manifest)
    os.makedirs(root, exist_ok=True)
    for s in samples:
        full = os.path.join(root, s.path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        raster.save_pbm(full, s.image)
    lines = ["path,class_label,group,split"] + [",".join(row) for row in rows]
    raster.write_utf8(manifest, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class CorpusEntry:
    path: str
    class_label: str
    group: str
    split: str


def read_manifest(root):
    """Rows of <root>/manifest.csv. Raises ValueError naming the file when it
    is not UTF-8, and its line too for malformed CSV, an empty or missing
    field, one write_corpus would refuse, or a split other than train/test."""
    manifest = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise FileNotFoundError("no %s in %s" % (MANIFEST_NAME, root))
    reader = csv.DictReader(io.StringIO(raster.read_utf8(manifest, ValueError), newline=""))
    fields = ("path", "class_label", "group", "split")
    entries = []
    try:
        if reader.fieldnames is None or not set(fields).issubset(reader.fieldnames):
            raise ValueError("%s: missing columns %s" % (manifest, sorted(fields)))
        for row in reader:
            where = "%s:%d" % (manifest, reader.line_num)
            if not all(row[f] for f in fields):
                raise ValueError("%s: empty or missing field" % where)
            raster.check_text_fields((row[f] for f in fields), where)
            if row["split"] not in ("train", "test"):
                raise ValueError("%s: split %r is not train or test" % (where, row["split"]))
            entries.append(CorpusEntry(*(row[f] for f in fields)))
    except csv.Error as exc:
        raise ValueError("%s:%d: %s" % (manifest, reader.reader.line_num, exc))
    return entries
