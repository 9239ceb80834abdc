"""Command-line frontend.

Subcommands: inspect, synth, train, eval, predict. Exit codes are a stable
scripting contract: 0 success, 1 I/O, format or bad-value error, 2
empty/degenerate input, 3 insufficient data. `FAILURES` maps each error
class to its code, and `main` holds the only handler.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import nn, pipeline, raster, structural, synth
from .config import ConfigError, load_config

EXIT_OK = 0
EXIT_IO = 1
EXIT_EMPTY = 2
EXIT_DATA = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="devoc",
        description="Two-stage handwritten Devanagari character recognizer.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="preprocess one glyph and dump debug artifacts")
    p.add_argument("input", help="PBM/PGM glyph image")
    p.add_argument("outdir", help="directory for skeleton, overlays, summary")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("outdir")
    p.add_argument("--per-class", type=int, default=None)
    p.add_argument("--amplitude", type=int, default=None)

    p = sub.add_parser("train", help="train one network per structural group")
    p.add_argument("corpus")
    p.add_argument("modeldir")

    p = sub.add_parser("eval", help="evaluate a model set over a corpus")
    p.add_argument("corpus")
    p.add_argument("modeldir")

    p = sub.add_parser("predict", help="classify a single glyph image")
    p.add_argument("image")
    p.add_argument("modeldir")
    return parser


def _overlay(points):
    img = np.zeros((raster.NORM_SIZE, raster.NORM_SIZE), dtype=bool)
    for r, c in points:
        img[r, c] = True
    return img


def _cmd_inspect(args, cfg, say):
    analysis = pipeline.analyze_glyph(raster.load_image(args.input), cfg)
    os.makedirs(args.outdir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    raster.save_pbm(os.path.join(args.outdir, stem + ".skel.pbm"), analysis.skeleton)
    shiro_pts = analysis.shirorekha.trace.points if analysis.shirorekha.trace else ()
    raster.save_pbm(os.path.join(args.outdir, stem + ".shiro.pbm"), _overlay(shiro_pts))
    spine_pts = tuple(analysis.spine.spine_path) + tuple(analysis.spine.matra_path)
    raster.save_pbm(os.path.join(args.outdir, stem + ".spine.pbm"), _overlay(spine_pts))
    lines = [
        "group: %s" % structural.group_name(analysis.group),
        "shirorekha: %s (span %.3f)" % (analysis.shirorekha.kind.value, analysis.shirorekha.span_ratio),
        "spine: %s col=%s matra=%s" % (analysis.spine.kind.value, analysis.spine.spine_col, analysis.spine.matra_col),
        "features: %s" % " ".join(str(int(v)) for v in analysis.raw_features),
    ]
    raster.write_utf8(os.path.join(args.outdir, stem + ".summary.txt"), "\n".join(lines) + "\n")
    say("wrote %s artifacts to %s" % (stem, args.outdir))


def _cmd_synth(args, cfg, say):
    per_class = args.per_class if args.per_class is not None else cfg.per_class
    amplitude = args.amplitude if args.amplitude is not None else cfg.amplitude
    samples = synth.plan_corpus(synth.default_templates(), per_class, amplitude, cfg.seed)
    synth.write_corpus(samples, args.outdir)
    say("wrote %d samples to %s" % (len(samples), args.outdir))


def _cmd_train(args, cfg, say):
    analysed = {}
    modelset, reports, routing_log = pipeline.train_all(pipeline.load_corpus(args.corpus), cfg, analysed, say)
    pipeline.save_modelset(args.modeldir, modelset)
    pipeline.save_train_analysis(args.modeldir, analysed, cfg)
    for key in sorted(reports):
        rep = reports[key]
        say(
            "%s: %d epochs, loss %.6g, |grad| %.3g, stop=%s"
            % (key, rep.epochs_run, rep.final_loss, rep.final_gradient_norm, rep.stop_reason.value)
        )
    if routing_log:
        say("%d routing error(s) during training partition" % len(routing_log))
    say("models written to %s" % args.modeldir)


def _cmd_eval(args, cfg, say):
    samples = pipeline.load_corpus(args.corpus)
    modelset = pipeline.load_modelset(args.modeldir)
    report = pipeline.evaluate(samples, modelset, cfg, pipeline.load_train_analysis(args.modeldir, cfg))
    print(pipeline.render_report(report))
    raster.write_utf8(os.path.join(args.modeldir, "report.csv"), pipeline.report_csv(report))
    raster.write_utf8(os.path.join(args.modeldir, "predictions.csv"), pipeline.predictions_csv(report))
    say(
        "reused the training analysis of %d of %d glyphs, analysed %d"
        % (report.reused, len(samples), len(samples) - report.reused)
    )
    say("report.csv and predictions.csv written to %s" % args.modeldir)


def _cmd_predict(args, cfg, say):
    img = raster.load_image(args.image)
    pred = pipeline.recognize(img, pipeline.load_modelset(args.modeldir), cfg)
    print("%s\t%s\t%.6f" % (pred.label, structural.group_name(pred.group), pred.confidence))


_COMMANDS = {
    "inspect": _cmd_inspect,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
}


# Ordered: an error takes the code of the first class it is an instance of
# (EmptyImageError is a RasterError).
FAILURES = (
    (raster.EmptyImageError, EXIT_EMPTY),
    (pipeline.InsufficientDataError, EXIT_DATA),
    (raster.RasterError, EXIT_IO),
    (pipeline.MalformedModelSetError, EXIT_IO),
    (pipeline.WorkerDiedError, EXIT_IO),
    (nn.NnError, EXIT_IO),
    (ConfigError, EXIT_IO),
    (OSError, EXIT_IO),
    (ValueError, EXIT_IO),
)


def main(argv=None):
    args = _build_parser().parse_args(argv)

    def say(msg):
        if not args.quiet:
            print(msg)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        _COMMANDS[args.command](args, cfg, say)
    except tuple(cls for cls, _ in FAILURES) as exc:
        code = next(code for cls, code in FAILURES if isinstance(exc, cls))
        if code != EXIT_EMPTY:
            print("error: %s" % exc, file=sys.stderr)
        elif getattr(args, "corpus", None) is None:
            print("empty glyph", file=sys.stderr)
        else:
            print("empty glyph in corpus %s: %s" % (args.corpus, exc), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
