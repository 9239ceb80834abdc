"""The three benchmark workloads.

corpus-1px     one batch pass of `devoc synth`, `devoc train`, `devoc eval`
               through `cli.main`, in-process. Set-up is the synth phase.
predict-1px    a closed loop with one caller: `raster.load_image` then
               `pipeline.recognize` for each held-out 1-px P1 file.
predict-thick  the same loop over the same held-out glyphs, each upscaled
               2x, dilated once with a 3x3 square and written as P5 PGM.

Inputs derive from the workload seed only; the library sees files and
images, never the seed. Each workload returns an `Outcome` that run.py
turns into the result line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from devoc import cli, pipeline, raster, structural, synth

import layers
from tracer import Recorder

AMPLITUDE = 2

# corpus_per_class 100 is the c09 acceptance corpus (1,200 glyphs).
SIZES = {
    "full": {"corpus_per_class": 100, "train_per_class": 30, "heldout_per_class": 40, "setups": 3},
    "tiny": {"corpus_per_class": 10, "train_per_class": 10, "heldout_per_class": 2, "setups": 2},
}

# Tail percentile, fixed per workload so that a faster program (more samples
# per run) still reports the same statistic. p99 of a 15-second run has about
# a dozen samples beyond it, and on a shared host those are scheduling stalls:
# over ten corpus-1px runs its spread was 0.96 of the median, p95's 0.14.
TAIL_PERCENTILE = {"corpus-1px": 95.0, "predict-1px": 95.0, "predict-thick": 95.0}
_FALLBACK = (99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    workdir: str  # scratch files, removed after the run
    outdir: str  # spans and the run ledger, kept

    def spans_path(self):
        return os.path.join(self.outdir, "spans-%s-%d.jsonl" % (self.workload, self.seed))

    @property
    def sizes(self):
        return SIZES[self.size]


@dataclass
class Outcome:
    metrics: dict  # name -> value; units come from BENCHMARK.json
    attempted: int
    failed: int
    fingerprint: str
    counts: dict  # exact counts that must repeat for the same seed and code
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def tail(values, want):
    """(percentile, value, samples beyond): the wanted nearest-rank
    percentile, or the highest lower one with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (want,) + tuple(q for q in _FALLBACK if q < want):
        rank = max(math.ceil(q / 100.0 * n), 1)
        if n - rank >= 10 or q == _FALLBACK[-1]:
            return q, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def timed(module, attr, sink):
    """Append the wall time of every call to module.attr to sink."""
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        sink.append(time.perf_counter() - t0)
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def _tracing(rec):
    return rec.installed(layers.targets()) if rec is not None else contextlib.nullcontext()


def _set(rec, phase, rep):
    if rec is not None:
        rec.phase, rec.rep = phase, rep


def _tree_digest(root):
    files = sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs
    )
    h = hashlib.sha256()
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _repeats_agree(rec, phase, errors):
    """Every complete repetition of a phase must produce the same counts."""
    reps = {}
    for s in rec.spans:
        if s.phase == phase:
            reps.setdefault(s.rep, []).append(s)
    sigs = {rep: layers.signature(spans) for rep, spans in sorted(reps.items())}
    first = sigs.get(0, {})
    for rep, sig in sigs.items():
        if sig != first:
            errors.append("%s repetition %d counts differ from repetition 0" % (phase, rep))
    return first


def _tail_note(workload, q, n, beyond):
    return "recognize_ms_tail is p%g of %d samples (%d beyond); %s wants p%g" % (
        q, n, beyond, workload, TAIL_PERCENTILE[workload])


# ---------------------------------------------------------------------------
# corpus-1px


def _check_eval_outputs(corpus, models, errors):
    """Invariants on predictions.csv and report.csv; returns (test accuracy,
    test routing accuracy, test routing errors, glyphs without a prediction)."""
    entries = synth.read_manifest(corpus)
    manifest = {e.path: e for e in entries}
    labels = {pipeline.REJECTED}
    for _, names in pipeline.load_modelset(models).models.values():
        labels.update(names)
    with open(os.path.join(models, "predictions.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    seen = set()
    ok = routed = n_test = 0
    for row in rows:
        path, true_label, detected, predicted, conf, split = row.split(",")
        entry = manifest.get(path)
        if entry is None or path in seen:
            errors.append("unexpected or repeated prediction for %s" % path)
            continue
        seen.add(path)
        confidence = float(conf)
        if predicted not in labels:
            errors.append("%s: label %r was never trained" % (path, predicted))
        if not 0.0 <= confidence <= 1.0 or (predicted == pipeline.REJECTED and confidence != 0.0):
            errors.append("%s: confidence %s out of range" % (path, conf))
        try:
            structural.parse_group_name(detected)
        except ValueError:
            errors.append("%s: bad detected group %r" % (path, detected))
        if true_label != entry.class_label or split != entry.split:
            errors.append("%s: record disagrees with the manifest" % path)
        if split == "test":
            n_test += 1
            ok += predicted == true_label
            routed += detected == entry.group
    missing = len(manifest) - len(seen)
    if missing:
        errors.append("%d corpus glyph(s) have no prediction" % missing)
    with open(os.path.join(models, "report.csv")) as fh:
        report = {line.split(",")[0]: line.split(",") for line in fh.read().splitlines()[1:]}
    for group in {e.group for e in entries}:
        row = report.get(group)
        expected = sum(e.group == group for e in entries)
        if row is None or int(row[3]) + int(row[4]) != expected:
            errors.append("report.csv row for %s is missing or miscounted" % group)
    n_test = max(n_test, 1)
    return 100.0 * ok / n_test, 100.0 * routed / n_test, n_test - routed, missing


def _cli(argv, errors):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        errors.append("devoc %s exited %d" % (argv[1], rc))
    return rc


def corpus_1px(run):
    sz = run.sizes
    rec = Recorder() if run.trace else None
    errors = []
    setup_s, corpus_digests = [], []
    train_rate, eval_rate, rec_lat = [], [], []
    fingerprints = []
    n_glyphs = 12 * sz["corpus_per_class"]
    with _tracing(rec):
        for k in range(sz["setups"]):
            _set(rec, "setup", k)
            corpus = os.path.join(run.workdir, "corpus%d" % k)
            argv = ["--quiet", "--seed", str(run.seed), "synth", corpus]
            argv += ["--per-class", str(sz["corpus_per_class"]), "--amplitude", str(AMPLITUDE)]
            t0 = time.perf_counter()
            _cli(argv, errors)
            setup_s.append(time.perf_counter() - t0)
            corpus_digests.append(_tree_digest(corpus))
        if len(set(corpus_digests)) != 1:
            errors.append("synth wrote different corpora for the same seed")
        t_start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - t_start < run.seconds:
            _set(rec, "measure", passes)
            models = os.path.join(run.workdir, "models%d" % passes)
            t0 = time.perf_counter()
            _cli(["--quiet", "train", corpus, models], errors)
            t1 = time.perf_counter()
            with timed(pipeline, "recognize", rec_lat):
                _cli(["--quiet", "eval", corpus, models], errors)
            t2 = time.perf_counter()
            train_rate.append(n_glyphs / (t1 - t0))
            eval_rate.append(n_glyphs / (t2 - t1))
            passes += 1
            if errors:
                break
            fingerprints.append(_tree_digest(models))
    if errors:
        return Outcome({}, n_glyphs * max(passes, 1), n_glyphs * max(passes, 1), "", {}, errors)
    accuracy, routing, routing_errors, missing = _check_eval_outputs(corpus, models, errors)
    if len(set(fingerprints)) != 1:
        errors.append("train/eval passes produced different outputs")
    q, tail_ms, beyond = tail(rec_lat, TAIL_PERCENTILE[run.workload])
    metrics = {
        "setup_s": statistics.median(setup_s),
        "train_glyphs_per_s": statistics.median(train_rate),
        "eval_glyphs_per_s": statistics.median(eval_rate),
        "recognize_ms_p50": 1000.0 * statistics.median(rec_lat),
        "recognize_ms_tail": 1000.0 * tail_ms,
        "recognize_glyphs_per_s": len(rec_lat) / sum(rec_lat),
        "accuracy_pct": accuracy,
        "routing_accuracy_pct": routing,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [_tail_note(run.workload, q, len(rec_lat), beyond)]
    notes.append("%d setup(s), %d train/eval pass(es) over %d glyphs" % (len(setup_s), passes, n_glyphs))
    counts = {"routing_errors": routing_errors}
    if rec is not None:
        counts["setup"] = _repeats_agree(rec, "setup", errors)
        counts["measure"] = _repeats_agree(rec, "measure", errors)
        # untraced reference eval for the tracing overhead; outputs must not change
        plain = []
        with timed(pipeline, "recognize", plain):
            _cli(["--quiet", "eval", corpus, models], errors)
        if _tree_digest(models) != fingerprints[0]:
            errors.append("tracing changed the eval outputs")
        overhead = 1000.0 * (statistics.median(rec_lat) - statistics.median(plain))
        metrics = layers.layer_metrics(rec, n_glyphs * passes, passes, routing_errors, overhead)
        notes.append("tracing overhead on recognize p50: %+.4f ms" % overhead)
        rec.write_jsonl(run.spans_path())
    return Outcome(metrics, n_glyphs * passes, missing, fingerprints[0], counts, errors, notes)


# ---------------------------------------------------------------------------
# predict-1px / predict-thick


@dataclass
class Heldout:
    path: str
    class_label: str
    group: str


def thick_pen(img):
    """2x pixel replication, then one 3x3 dilation: about a 4-px pen at 200x200."""
    big = np.repeat(np.repeat(img, 2, axis=0), 2, axis=1)
    return ndimage.binary_dilation(big, structure=np.ones((3, 3), dtype=bool))


def write_p5(path, img):
    h, w = img.shape
    body = np.where(img, 0, 255).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h) + body)


def _write_heldout(samples, root, thick):
    if not thick:
        synth.write_corpus(samples, root)
    out = []
    for s in samples:
        rel = os.path.join(s.group, s.class_label, "%04d.%s" % (s.index, "pgm" if thick else "pbm"))
        path = os.path.join(root, rel)
        if thick:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_p5(path, thick_pen(s.image))
        out.append(Heldout(path, s.class_label, s.group))
    return out


@dataclass
class Setup:
    seconds: float
    train_glyphs_per_s: float
    heldout: list
    modelset: object
    models_digest: str


def _setup_predict(run, k, thick):
    """Input generation, training, saving and load_modelset: one set-up."""
    sz = run.sizes
    root = os.path.join(run.workdir, "setup%d" % k)
    templates = synth.default_templates()
    t0 = time.perf_counter()
    train = synth.generate_corpus(templates, sz["train_per_class"], AMPLITUDE, synth.mix_seed(run.seed, "train"))
    held = synth.generate_corpus(templates, sz["heldout_per_class"], AMPLITUDE, synth.mix_seed(run.seed, "heldout"))
    heldout = _write_heldout(held, os.path.join(root, "heldout"), thick)
    t1 = time.perf_counter()
    modelset, _, _ = pipeline.train_all(pipeline.corpus_from_samples(train))
    t2 = time.perf_counter()
    models = os.path.join(root, "models")
    pipeline.save_modelset(models, modelset)
    loaded = pipeline.load_modelset(models)
    t3 = time.perf_counter()
    return Setup(t3 - t0, len(train) / (t2 - t1), heldout, loaded, _tree_digest(models))


def _serve(heldout, order, modelset, seconds, rec, results, errors):
    """Closed loop, one caller: until `seconds` have passed and at least one
    full cycle over the held-out files is done. Returns per-request and
    recognize-only latencies, attempts, failures and the loop wall time."""
    lat, rec_only = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - t_start < seconds:
        for i in order:
            if cycle > 0 and time.perf_counter() - t_start >= seconds:
                break
            if rec is not None:
                rec.rep, rec.glyph = cycle, i
            attempted += 1
            t0 = time.perf_counter()
            try:
                img = raster.load_image(heldout[i].path)
                t1 = time.perf_counter()
                pred = pipeline.recognize(img, modelset)
                t2 = time.perf_counter()
            except Exception as exc:  # a failed request is counted, never fatal
                failed += 1
                errors.append("%s: %s: %s" % (heldout[i].path, type(exc).__name__, exc))
                continue
            finally:
                if rec is not None:
                    rec.glyph = None
            lat.append(t2 - t0)
            rec_only.append(t2 - t1)
            got = (pred.label, structural.group_name(pred.group), pred.confidence)
            if results.setdefault(i, got) != got:
                errors.append("%s: repeated request gave %r, first %r" % (heldout[i].path, got, results[i]))
        cycle += 1
    return lat, rec_only, attempted, failed, time.perf_counter() - t_start


def _check_predictions(heldout, results, labels, errors):
    ok = routed = 0
    lines = []
    for i, item in enumerate(heldout):
        if i not in results:
            errors.append("%s: no record" % item.path)
            continue
        label, group, conf = results[i]
        if label not in labels:
            errors.append("%s: label %r was never trained" % (item.path, label))
        if not 0.0 <= conf <= 1.0 or (label == pipeline.REJECTED and conf != 0.0):
            errors.append("%s: confidence %r out of range" % (item.path, conf))
        ok += label == item.class_label
        routed += group == item.group
        lines.append("%d\t%s\t%s\t%r" % (i, label, group, conf))
    fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    n = max(len(heldout), 1)
    return 100.0 * ok / n, 100.0 * routed / n, len(heldout) - routed, fingerprint


def _per_glyph_counts_agree(rec, errors):
    """Each glyph must cost the same calls every time it is served."""
    per = {}
    for s in rec.spans:
        if s.phase == "measure":
            per.setdefault((s.glyph, s.rep), []).append(s)
    first = {}
    for (glyph, rep), spans in sorted(per.items(), key=lambda kv: kv[0][1]):
        sig = layers.signature(spans)
        if first.setdefault(glyph, sig) != sig:
            errors.append("glyph %s: cycle %d call counts differ from its first cycle" % (glyph, rep))


def predict(run):
    thick = run.workload == "predict-thick"
    rec = Recorder() if run.trace else None
    errors = []
    setups = []
    with _tracing(rec):
        for k in range(run.sizes["setups"]):
            _set(rec, "setup", k)
            setups.append(_setup_predict(run, k, thick))
    if len({s.models_digest for s in setups}) != 1:
        errors.append("set-ups trained different model files from the same seed")
    heldout, modelset = setups[-1].heldout, setups[-1].modelset
    labels = {pipeline.REJECTED}
    for _, names in modelset.models.values():
        labels.update(names)
    order = [int(i) for i in np.random.default_rng(run.seed).permutation(len(heldout))]
    results = {}
    if rec is None:
        lat, rec_only, attempted, failed, wall = _serve(heldout, order, modelset, run.seconds, None, results, errors)
    else:
        plain, _, _, _, _ = _serve(heldout, order, modelset, run.seconds / 2.0, None, results, errors)
        _set(rec, "measure", 0)
        with _tracing(rec):
            lat, rec_only, attempted, failed, wall = _serve(
                heldout, order, modelset, run.seconds / 2.0, rec, results, errors
            )
    accuracy, routing, routing_errors, fingerprint = _check_predictions(heldout, results, labels, errors)
    if not lat:
        return Outcome({}, max(attempted, 1), failed, fingerprint, {}, errors)
    q, tail_s, beyond = tail(lat, TAIL_PERCENTILE[run.workload])
    metrics = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "train_glyphs_per_s": statistics.median(s.train_glyphs_per_s for s in setups),
        "eval_glyphs_per_s": len(lat) / wall,
        "recognize_ms_p50": 1000.0 * statistics.median(lat),
        "recognize_ms_tail": 1000.0 * tail_s,
        "recognize_glyphs_per_s": len(rec_only) / sum(rec_only),
        "accuracy_pct": accuracy,
        "routing_accuracy_pct": routing,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [_tail_note(run.workload, q, len(lat), beyond)]
    notes.append("%d set-up(s), %d requests over %d held-out glyphs" % (len(setups), attempted, len(heldout)))
    counts = {"routing_errors": routing_errors}
    if rec is not None:
        counts["setup"] = _repeats_agree(rec, "setup", errors)
        _per_glyph_counts_agree(rec, errors)
        counts["measure"] = layers.signature(s for s in rec.spans if s.phase == "measure" and s.rep == 0)
        overhead = 1000.0 * (statistics.median(lat) - statistics.median(plain))
        metrics = layers.layer_metrics(rec, len(lat), 1, routing_errors, overhead)
        notes.append("tracing overhead on recognize p50: %+.4f ms" % overhead)
        rec.write_jsonl(run.spans_path())
    return Outcome(metrics, attempted, failed, fingerprint, counts, errors, notes)


WORKLOADS = {"corpus-1px": corpus_1px, "predict-1px": predict, "predict-thick": predict}
