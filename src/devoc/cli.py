"""Command-line frontend.

Subcommands: inspect, synth, train, eval, predict. Exit codes are a stable
scripting contract: 0 success, 1 I/O or format error, 2 empty/degenerate
input, 3 insufficient data.
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
    try:
        img = raster.load_image(args.input)
    except raster.RasterError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        analysis = pipeline.analyze_glyph(img, cfg)
    except raster.EmptyImageError:
        print("empty glyph", file=sys.stderr)
        return EXIT_EMPTY
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
    raster.atomic_write_bytes(
        os.path.join(args.outdir, stem + ".summary.txt"), ("\n".join(lines) + "\n").encode("ascii")
    )
    say("wrote %s artifacts to %s" % (stem, args.outdir))
    return EXIT_OK


def _cmd_synth(args, cfg, say):
    per_class = args.per_class if args.per_class is not None else cfg.per_class
    amplitude = args.amplitude if args.amplitude is not None else cfg.amplitude
    try:
        samples = synth.generate_corpus(synth.default_templates(), per_class, amplitude, cfg.seed)
        synth.write_corpus(samples, args.outdir)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    say("wrote %d samples to %s" % (len(samples), args.outdir))
    return EXIT_OK


def _empty_corpus_glyph(corpus, exc):
    print("empty glyph in corpus %s: %s" % (corpus, exc), file=sys.stderr)
    return EXIT_EMPTY


def _cmd_train(args, cfg, say):
    try:
        samples = pipeline.load_corpus(args.corpus)
    except (FileNotFoundError, ValueError, raster.RasterError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        modelset, reports, routing_log = pipeline.train_all(samples, cfg)
    except pipeline.InsufficientDataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except raster.EmptyImageError as exc:
        return _empty_corpus_glyph(args.corpus, exc)
    try:
        pipeline.save_modelset(args.modeldir, modelset)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    for key in sorted(reports):
        rep = reports[key]
        say(
            "%s: %d epochs, loss %.6g, |grad| %.3g, stop=%s"
            % (key, rep.epochs_run, rep.final_loss, rep.final_gradient_norm, rep.stop_reason.value)
        )
    if routing_log:
        say("%d routing error(s) during training partition" % len(routing_log))
    say("models written to %s" % args.modeldir)
    return EXIT_OK


def _cmd_eval(args, cfg, say):
    try:
        samples = pipeline.load_corpus(args.corpus)
        modelset = pipeline.load_modelset(args.modeldir)
    except (FileNotFoundError, ValueError, raster.RasterError, pipeline.MalformedModelSetError, nn.NnError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        report = pipeline.evaluate(samples, modelset, cfg)
    except raster.EmptyImageError as exc:
        return _empty_corpus_glyph(args.corpus, exc)
    print(pipeline.render_report(report))
    raster.atomic_write_bytes(
        os.path.join(args.modeldir, "report.csv"), pipeline.report_csv(report).encode("ascii")
    )
    raster.atomic_write_bytes(
        os.path.join(args.modeldir, "predictions.csv"), pipeline.predictions_csv(report).encode("ascii")
    )
    say("report.csv and predictions.csv written to %s" % args.modeldir)
    return EXIT_OK


def _cmd_predict(args, cfg, say):
    try:
        img = raster.load_image(args.image)
        modelset = pipeline.load_modelset(args.modeldir)
    except (FileNotFoundError, raster.RasterError, pipeline.MalformedModelSetError, nn.NnError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        pred = pipeline.recognize(img, modelset, cfg)
    except raster.EmptyImageError:
        print("empty glyph", file=sys.stderr)
        return EXIT_EMPTY
    print("%s\t%s\t%.6f" % (pred.label, structural.group_name(pred.group), pred.confidence))
    return EXIT_OK


_COMMANDS = {
    "inspect": _cmd_inspect,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    if args.seed is not None:
        cfg.seed = args.seed

    def say(msg):
        if not args.quiet:
            print(msg)

    return _COMMANDS[args.command](args, cfg, say)


if __name__ == "__main__":
    sys.exit(main())
