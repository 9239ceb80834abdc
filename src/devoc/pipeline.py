"""End-to-end orchestration: preprocess -> structural routing -> per-group
neural classification, plus corpus training and Table-style evaluation.
Training analyses its glyphs in worker processes where there are enough of
them (analyze_corpus) and records the stage-one result of each, and
evaluation reuses it rather than analysing the same image again.

Routing errors (detected group != manifest group) count against accuracy:
the reported numbers are what a user of the whole system experiences.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import features, nn, raster, structural, synth
from .config import Config

REJECTED = "REJECTED"
MODELSET_MAGIC = "DEVOC-MODELSET v1"
MODELSET_NAME = "modelset.txt"
TRAIN_ANALYSIS_NAME = "train_analysis.csv"
TRAIN_ANALYSIS_MAGIC = "DEVOC-TRAIN-ANALYSIS"
# The record's format version. Bump it with every change to stage one's
# output, that is whenever TestAnalyze::test_stage_one_fingerprint's constant
# changes, so that no model directory hands eval an analysis made by other code.
TRAIN_ANALYSIS_VERSION = 1


class InsufficientDataError(Exception):
    def __init__(self, group, message):
        super().__init__(message)
        self.group = group


class MalformedModelSetError(Exception):
    pass


class WorkerDiedError(Exception):
    """A worker process of analyze_corpus ended without returning its batch."""


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


def classify(group, raw_features, modelset, cfg):
    """Stage two: the detected group's network on the scaled raw features;
    it never overrides stage one. Glyphs routed to a group with no trained
    model are Rejected with confidence 0."""
    entry = modelset.models.get(structural.group_name(group))
    if entry is None:
        return Prediction(group, REJECTED, 0.0)
    net, labels = entry
    probs = nn.forward(net, features.scale_features(raw_features, cfg.feature_cap))
    best = int(np.argmax(probs))
    return Prediction(group, labels[best], float(probs[best]))


def recognize(img, modelset, cfg=None):
    """Two-stage recognition: analyze_glyph, then classify."""
    cfg = cfg or Config()
    analysis = analyze_glyph(img, cfg)
    return classify(analysis.group, analysis.raw_features, modelset, cfg)


# ---------------------------------------------------------------------------
# Corpus handling


@dataclass(frozen=True)
class CorpusSample:
    """A manifest row of a corpus on disk. Its image is read from
    <root>/<path> on every access and never kept."""

    root: str
    path: str
    class_label: str
    group: str
    split: str

    @property
    def image(self):
        return raster.load_image(os.path.join(self.root, self.path))


def load_corpus(root):
    """The samples of <root>/manifest.csv; no image is read here."""
    return [CorpusSample(root, e.path, e.class_label, e.group, e.split) for e in synth.read_manifest(root)]


def corpus_from_samples(samples):
    """In-memory synth samples as a corpus: they already carry the five
    fields train_all and evaluate read (path, image, class_label, group,
    split)."""
    return list(samples)


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
# Corpus analysis


def _analyze_batch(batch, cfg):
    """The RecordedAnalysis of each sample of one batch, its images read
    through synth.with_images."""
    records = []
    for s, img in synth.with_images(batch):
        with synth.naming(s.path):
            analysis = analyze_glyph(img, cfg)
        records.append(RecordedAnalysis(_digest(img), analysis.group, analysis.raw_features))
    return records


def _can_fork():
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def corpus_workers(n_samples):
    """The processes analyze_corpus uses for n_samples: one per CPU in this
    process's affinity mask (os.sched_getaffinity, which does not see a
    cgroup CPU quota), but no more than one per 4 batches, a last partial
    batch counting as one. On a 2-vCPU host, two workers started together
    for a few short batches often shared one CPU for their first 0.2-0.3 s,
    and a 4-batch corpus trained about 20% slower pooled; no larger host was
    measured. 1 means in-process, as does a platform without the fork start
    method."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    n = min(cpus, -(-n_samples // synth.BATCH) // 4)
    return n if n > 1 and _can_fork() else 1


def analyze_corpus(samples, cfg=None):
    """(records, workers): one RecordedAnalysis per sample, in input order,
    and the number of processes that made them, corpus_workers(len(samples)).
    The samples are cut into synth.BATCH batches, each analysed by one worker
    process that reads its own images, so a file-backed batch pickles only
    paths; at one worker the batches run in-process. The records do not
    depend on the worker count. A worker that dies raises WorkerDiedError
    naming the first batch, in input order, left unanalysed (not always the
    one the dead worker held); any other error of a batch is raised as it
    was. Either way the pending batches are cancelled and every worker has
    exited first."""
    cfg = cfg or Config()
    batches = [samples[i : i + synth.BATCH] for i in range(0, len(samples), synth.BATCH)]
    jobs = corpus_workers(len(samples))
    if jobs <= 1:
        return [rec for batch in batches for rec in _analyze_batch(batch, cfg)], 1
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: a worker starts with the library already imported, and the pool
    # forks every worker before it starts its own threads
    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_analyze_batch, batch, cfg) for batch in batches]
        records = []
        for batch, future in zip(batches, futures):
            try:
                records += future.result()
            except BrokenProcessPool:
                # the pool breaks every unfinished batch, not only the one
                # the dead worker held
                raise WorkerDiedError(
                    "a worker process died; the batches from %s on were not analysed" % batch[0].path
                ) from None
        return records, jobs
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Training


def train_all(samples, cfg=None, analysed=None, say=None):
    """Partition the training split by *detected* structural group (routing
    is part of the system under test), train one network per group.
    Returns (GroupModelSet, {group: TrainReport}, routing_log). A dict passed
    as analysed receives path -> RecordedAnalysis for every train glyph, the
    record save_train_analysis writes. Only train-split images are read,
    by analyze_corpus. say, if given, is called with one line naming how
    many worker processes analysed the train glyphs."""
    cfg = cfg or Config()
    _check_corpus(samples)
    train = [s for s in samples if s.split == "train"]
    records, workers = analyze_corpus(train, cfg)
    if say is not None:
        say("analysed %d train glyphs in %d worker process(es)" % (len(train), workers))
    by_group = {}
    routing_log = []
    for s, rec in zip(train, records):
        if analysed is not None:
            analysed[s.path] = rec
        key = structural.group_name(rec.group)
        if key != s.group:
            routing_log.append((s.path, s.group, key))
        by_group.setdefault(key, []).append((rec.raw_features, s.class_label))
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
    reused: int  # samples classified from a recorded analysis


def _accuracy(correct, total):
    return float("nan") if total == 0 else 100.0 * correct / total


def evaluate(samples, modelset, cfg=None, analysed=None):
    """Run recognition over both splits; a sample is correct iff the
    predicted label equals the manifest label (misrouting counts as wrong).
    A sample whose path and image digest match an entry of analysed (from
    load_train_analysis) is classified from that recorded stage-one result
    instead of being analysed again. Images are read a batch at a time
    (synth.with_images)."""
    cfg = cfg or Config()
    analysed = analysed or {}
    records = []
    reused = 0
    for s, img in synth.with_images(samples):
        known = analysed.get(s.path)
        if known is not None and known.digest == _digest(img):
            pred = classify(known.group, known.raw_features, modelset, cfg)
            reused += 1
        else:
            with synth.naming(s.path):
                pred = recognize(img, modelset, cfg)
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
    return EvalReport(rows, overall, tuple(records), reused)


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
    for key, (_, labels) in modelset.models.items():
        raster.check_text_fields(labels, os.path.join(dirpath, "%s.mlp" % key))
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


# ---------------------------------------------------------------------------
# The stage-one record of the train glyphs


@dataclass(frozen=True)
class RecordedAnalysis:
    digest: str  # of the decoded image, see _digest
    group: structural.StructuralClass
    raw_features: np.ndarray


def _digest(img):
    """SHA-256 of a decoded glyph: its shape and its packed bits."""
    return hashlib.sha256(b"%dx%d:" % img.shape + np.packbits(img).tobytes()).hexdigest()


def _record_header(cfg):
    """The record's first line: its format version and every setting stage
    one reads, the StructuralConfig fields and max_spur, each exactly."""
    names = [f.name for f in fields(structural.StructuralConfig)] + ["max_spur"]
    settings = ["%s=%r" % (n, getattr(cfg, n)) for n in names]
    return " ".join([TRAIN_ANALYSIS_MAGIC, "v%d" % TRAIN_ANALYSIS_VERSION] + settings)


_RECORD_COLUMNS = ",".join(
    ["path", "digest", "detected_group"]
    + ["%s%d" % (kind, t) for t in range(features.GRID * features.GRID) for kind in ("int", "end")]
)
# path, digest, group and the counts, each of which fits in an int64
_RECORD_ROW = re.compile(r"([^,]+),([0-9a-f]{64}),([a-z]+_[a-z]+)" + r",([0-9]{1,18})" * features.N_FEATURES)


def save_train_analysis(dirpath, analysed, cfg):
    """Write train_analysis.csv: the settings header, then per train glyph
    its corpus path, image digest, detected group and the 32 raw feature
    counts (intersections and open ends per tile, row-major)."""
    lines = [_record_header(cfg), _RECORD_COLUMNS]
    for path, rec in analysed.items():
        counts = ",".join(map(str, rec.raw_features.tolist()))
        lines.append("%s,%s,%s,%s" % (path, rec.digest, structural.group_name(rec.group), counts))
    raster.write_utf8(os.path.join(dirpath, TRAIN_ANALYSIS_NAME), "\n".join(lines) + "\n")


def load_train_analysis(dirpath, cfg):
    """path -> RecordedAnalysis from dirpath's train_analysis.csv. Empty when
    there is none, or when it was written by another format version or
    under other stage-one settings than cfg's."""
    path = os.path.join(dirpath, TRAIN_ANALYSIS_NAME)
    if not os.path.exists(path):
        return {}
    lines = raster.read_utf8(path, MalformedModelSetError).split("\n")
    if lines[0].split(" ")[0] != TRAIN_ANALYSIS_MAGIC:
        raise MalformedModelSetError("%s: bad header" % path)
    if lines[0] != _record_header(cfg):
        return {}
    if lines[1:2] != [_RECORD_COLUMNS] or lines[-1] != "":
        raise MalformedModelSetError("%s: bad column line or no final newline" % path)
    rows, counts = [], []
    for lineno, line in enumerate(lines[2:-1], 3):
        m = _RECORD_ROW.fullmatch(line)
        if m is None:
            raise MalformedModelSetError("%s:%d: bad row" % (path, lineno))
        try:
            rows.append((m[1], m[2], structural.parse_group_name(m[3])))
        except ValueError as exc:
            raise MalformedModelSetError("%s:%d: %s" % (path, lineno, exc))
        counts.append(m.groups()[3:])
    raw = np.array(counts, dtype=np.int64)
    return {rel: RecordedAnalysis(digest, group, vec) for (rel, digest, group), vec in zip(rows, raw)}
