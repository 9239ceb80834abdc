"""End-to-end orchestration: preprocess -> structural routing -> per-group
neural classification, plus corpus training and Table-style evaluation.

Routing errors (detected group != manifest group) count against accuracy:
the reported numbers are what a user of the whole system experiences.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import features, nn, raster, structural, synth
from .config import Config

REJECTED = "REJECTED"
MODELSET_MAGIC = "DEVOC-MODELSET v1"
MODELSET_NAME = "modelset.txt"


class InsufficientDataError(Exception):
    def __init__(self, group, message):
        super().__init__(message)
        self.group = group


class MalformedModelSetError(Exception):
    pass


@dataclass(frozen=True)
class Prediction:
    group: structural.StructuralClass
    label: str
    confidence: float


@dataclass
class GroupModelSet:
    # group key (e.g. "full_end") -> (Mlp, label list); missing group -> Rejected
    models: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Analysis:
    skeleton: np.ndarray
    shirorekha: structural.ShirorekhaResult
    spine: structural.SpineResult
    group: structural.StructuralClass
    raw_features: np.ndarray


def preprocess_glyph(img, cfg=None):
    """Binarized image -> 100x100 one-pixel-wide skeleton (crop, thicken,
    thin, prune, normalize which re-thins)."""
    cfg = cfg or Config()
    g = raster.crop(img, raster.bounding_box(img))  # EmptyImageError on blank
    g = raster.thicken(g)
    g = raster.thin_to_convergence(g)
    g = raster.prune(g, cfg.max_spur)
    return raster.normalize(g)


def analyze_glyph(img, cfg=None):
    """Full stage-one analysis plus the 32 raw feature counts. The matra
    column, when detected, is masked out (+-1) before feature extraction so
    the features describe the character body."""
    cfg = cfg or Config()
    skel = preprocess_glyph(img, cfg)
    shiro = structural.detect_shirorekha(skel, cfg)
    spine = structural.detect_spines(skel, shiro, cfg)
    group = structural.StructuralClass(shiro.kind, spine.kind)
    body = skel
    if spine.matra_col is not None:
        body = skel.copy()
        lo = max(spine.matra_col - 1, 0)
        body[:, lo : spine.matra_col + 2] = False
    vec = features.extract_features(body)
    return Analysis(skel, shiro, spine, group, vec)


def recognize(img, modelset, cfg=None):
    """Two-stage recognition; stage two never overrides stage one. Glyphs
    routed to a group with no trained model are Rejected with confidence 0."""
    cfg = cfg or Config()
    analysis = analyze_glyph(img, cfg)
    key = structural.group_name(analysis.group)
    entry = modelset.models.get(key)
    if entry is None:
        return Prediction(analysis.group, REJECTED, 0.0)
    net, labels = entry
    probs = nn.forward(net, features.scale_features(analysis.raw_features, cfg.feature_cap))
    best = int(np.argmax(probs))
    return Prediction(analysis.group, labels[best], float(probs[best]))


# ---------------------------------------------------------------------------
# Corpus handling


@dataclass(frozen=True)
class CorpusSample:
    path: str
    image: np.ndarray
    class_label: str
    group: str
    split: str


def load_corpus(root):
    """Read manifest.csv and every referenced PBM/PGM."""
    entries = synth.read_manifest(root)
    samples = []
    for e in entries:
        img = raster.load_image(os.path.join(root, e.path))
        samples.append(CorpusSample(e.path, img, e.class_label, e.group, e.split))
    return samples


def corpus_from_samples(samples):
    """Adapt in-memory synth samples to the corpus sample shape."""
    return [
        CorpusSample(s.path, s.image, s.class_label, s.group, s.split) for s in samples
    ]


@contextlib.contextmanager
def _naming(sample):
    """Prefix an EmptyImageError with the corpus path of the blank glyph."""
    try:
        yield
    except raster.EmptyImageError as exc:
        raise raster.EmptyImageError("%s: %s" % (sample.path, exc)) from exc


def _check_corpus(samples):
    by_group = {}
    for s in samples:
        by_group.setdefault(s.group, {}).setdefault(s.class_label, 0)
        by_group[s.group][s.class_label] += 1
    for group, classes in sorted(by_group.items()):
        if len(classes) < 2:
            raise InsufficientDataError(group, "group %r has a single class" % group)
        for label, count in sorted(classes.items()):
            if count < 2:
                raise InsufficientDataError(
                    group, "class %r in group %r has %d sample(s)" % (label, group, count)
                )


# ---------------------------------------------------------------------------
# Training


def train_all(samples, cfg=None):
    """Partition the training split by *detected* structural group (routing
    is part of the system under test), train one network per group.
    Returns (GroupModelSet, {group: TrainReport}, routing_log)."""
    cfg = cfg or Config()
    _check_corpus(samples)
    by_group = {}
    routing_log = []
    for s in samples:
        if s.split != "train":
            continue
        with _naming(s):
            analysis = analyze_glyph(s.image, cfg)
        key = structural.group_name(analysis.group)
        if key != s.group:
            routing_log.append((s.path, s.group, key))
        by_group.setdefault(key, []).append((analysis.raw_features, s.class_label))
    manifest_groups = {s.group for s in samples}
    modelset = GroupModelSet()
    reports = {}
    for key, rows in sorted(by_group.items()):
        labels = sorted({label for _, label in rows})
        if len(labels) < 2:
            if key in manifest_groups:
                raise InsufficientDataError(key, "detected group %r has a single class" % key)
            # a handful of misrouted glyphs can land in a group the corpus
            # does not contain; skip it rather than abort the whole run
            routing_log.append(("<skipped group>", key, key))
            continue
        index = {label: i for i, label in enumerate(labels)}
        x = np.array([features.scale_features(vec, cfg.feature_cap) for vec, _ in rows])
        y = np.zeros((len(rows), len(labels)))
        for i, (_, label) in enumerate(rows):
            y[i, index[label]] = 1.0
        net = nn.init_mlp(cfg.n_hidden, len(labels), seed=synth.mix_seed(cfg.seed, key))
        net, report = nn.train(net, x, y, cfg)
        modelset.models[key] = (net, labels)
        reports[key] = report
    return modelset, reports, routing_log


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class SampleRecord:
    path: str
    true_label: str
    manifest_group: str
    detected_group: str
    predicted_label: str
    confidence: float
    split: str


@dataclass(frozen=True)
class GroupRow:
    group: str
    test_accuracy: float  # percent, nan when the split is empty
    train_accuracy: float
    n_test: int
    n_train: int


@dataclass(frozen=True)
class EvalReport:
    rows: tuple  # GroupRow per manifest group
    overall_accuracy: float  # percent over the test split
    records: tuple  # SampleRecord per sample, both splits


def _accuracy(correct, total):
    return float("nan") if total == 0 else 100.0 * correct / total


def evaluate(samples, modelset, cfg=None):
    """Run recognition over both splits; a sample is correct iff the
    predicted label equals the manifest label (misrouting counts as wrong)."""
    cfg = cfg or Config()
    records = []
    for s in samples:
        with _naming(s):
            pred = recognize(s.image, modelset, cfg)
        records.append(
            SampleRecord(
                s.path,
                s.class_label,
                s.group,
                structural.group_name(pred.group),
                pred.label,
                pred.confidence,
                s.split,
            )
        )
    counts = {}
    for rec in records:
        slot = counts.setdefault(rec.manifest_group, [0, 0, 0, 0])  # ok/n test, ok/n train
        base = 0 if rec.split == "test" else 2
        slot[base] += rec.predicted_label == rec.true_label
        slot[base + 1] += 1
    rows = tuple(
        GroupRow(g, _accuracy(c[0], c[1]), _accuracy(c[2], c[3]), c[1], c[3])
        for g, c in sorted(counts.items())
    )
    test = [r for r in records if r.split == "test"]
    overall = _accuracy(sum(r.predicted_label == r.true_label for r in test), len(test))
    return EvalReport(rows, overall, tuple(records))


def _fmt_acc(v):
    return "n/a" if v != v else "%.2f" % v


def render_report(report):
    """Aligned plain-text table in the shape of the paper-style results."""
    header = ("group", "test_acc", "train_acc", "n_test", "n_train")
    body = [
        (r.group, _fmt_acc(r.test_accuracy), _fmt_acc(r.train_accuracy), str(r.n_test), str(r.n_train))
        for r in report.rows
    ]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(5)]
    lines = ["  ".join(v.ljust(widths[i]) for i, v in enumerate(row)) for row in [header] + body]
    lines.append("overall test accuracy: %s%%" % _fmt_acc(report.overall_accuracy))
    return "\n".join(lines)


def report_csv(report):
    lines = ["group,test_acc,train_acc,n_test,n_train"]
    for r in report.rows:
        lines.append(
            "%s,%s,%s,%d,%d"
            % (r.group, _fmt_acc(r.test_accuracy), _fmt_acc(r.train_accuracy), r.n_test, r.n_train)
        )
    return "\n".join(lines) + "\n"


def predictions_csv(report):
    lines = ["path,true_label,detected_group,predicted_label,confidence,split"]
    for r in report.records:
        lines.append(
            "%s,%s,%s,%s,%.6f,%s"
            % (r.path, r.true_label, r.detected_group, r.predicted_label, r.confidence, r.split)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model set persistence


def save_modelset(dirpath, modelset):
    """One model file per group, <group>.mlp, plus a modelset.txt manifest.
    Every label is checked before the first write."""
    for _, labels in modelset.models.values():
        nn.check_labels(labels)
    os.makedirs(dirpath, exist_ok=True)
    lines = [MODELSET_MAGIC]
    for key in sorted(modelset.models):
        net, labels = modelset.models[key]
        fname = "%s.mlp" % key
        nn.save_model(os.path.join(dirpath, fname), net, labels)
        lines.append("%s %s" % (key, fname))
    raster.write_utf8(os.path.join(dirpath, MODELSET_NAME), "\n".join(lines) + "\n")


def load_modelset(dirpath):
    manifest = os.path.join(dirpath, MODELSET_NAME)
    if not os.path.exists(manifest):
        raise FileNotFoundError("no %s in %s" % (MODELSET_NAME, dirpath))
    lines = raster.read_utf8(manifest, MalformedModelSetError).splitlines()
    if not lines or lines[0] != MODELSET_MAGIC:
        raise MalformedModelSetError("bad modelset header")
    modelset = GroupModelSet()
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedModelSetError("bad modelset line %r" % line)
        key, fname = parts
        try:
            structural.parse_group_name(key)
        except ValueError as exc:
            raise MalformedModelSetError("bad modelset line %r: %s" % (line, exc))
        net, labels = nn.load_model(os.path.join(dirpath, fname))
        modelset.models[key] = (net, labels)
    return modelset
