"""Which devoc functions the traced run wraps, and the per-layer metrics
derived from their spans.

Glyph-level metrics (raster, structural, features, nn.forward,
analyze_glyph) count only spans of the measured phase, so models trained
during set-up do not mix 1-px training glyphs into a thick-pen profile.
Set-up metrics (synth, save_pbm, nn.train, load_modelset) count every phase.
Small hot helpers such as `raster.neighbor_count` stay unwrapped.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from devoc import cli, features, nn, pipeline, raster, structural, synth

from tracer import Target


def targets():
    seq = itertools.count()
    return [
        Target(cli, "main", "cli.main"),
        Target(synth, "generate_corpus", "synth.generate_corpus", attrs_of=lambda a, r: {"glyphs": len(r)}),
        Target(synth, "write_corpus", "synth.write_corpus", attrs_of=lambda a, r: {"glyphs": len(a[0])}),
        Target(pipeline, "load_corpus", "pipeline.load_corpus"),
        Target(pipeline, "train_all", "pipeline.train_all"),
        Target(pipeline, "evaluate", "pipeline.evaluate"),
        Target(pipeline, "save_modelset", "pipeline.save_modelset"),
        Target(pipeline, "load_modelset", "pipeline.load_modelset"),
        Target(pipeline, "recognize", "pipeline.recognize"),
        Target(pipeline, "analyze_glyph", "pipeline.analyze_glyph", glyph_of=lambda a: "a%d" % next(seq)),
        Target(raster, "load_image", "raster.load_image", glyph_of=lambda a: str(a[0])),
        Target(raster, "save_pbm", "raster.save_pbm"),
        Target(raster, "thin_to_convergence", "raster.thin_to_convergence"),
        Target(raster, "prune", "raster.prune"),
        Target(raster, "normalize", "raster.normalize"),
        Target(structural, "detect_shirorekha", "structural.detect_shirorekha"),
        Target(structural, "detect_spines", "structural.detect_spines"),
        Target(features, "extract_features", "features.extract_features"),
        Target(nn, "forward", "nn.forward"),
        Target(
            nn,
            "train",
            "nn.train",
            # loss_history holds the initial loss plus one entry per accepted step
            attrs_of=lambda a, r: {"epochs": r[1].epochs_run, "accepted": len(r[1].loss_history) - 1},
        ),
        Target(nn, "loss_and_gradient", "nn.loss_and_gradient"),
    ]


def signature(spans):
    """Exact counts for a group of spans: calls per name plus summed
    integer attributes. Two repetitions of the same work must agree."""
    sig = Counter()
    for s in spans:
        sig[s.name] += 1
        for key, value in s.attrs.items():
            sig["%s.%s" % (s.name, key)] += value
    return dict(sorted(sig.items()))


def _p99(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(0.99 * len(ordered)) - 1, 0)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, corpus_glyphs, passes, routing_errors, overhead_ms):
    """Per-layer values by metric name, from a recorder's spans.

    corpus_glyphs: glyphs the measured phase was asked to process (corpus
    size times passes, or requests served), the base of calls_per_corpus_glyph.
    passes: measured repetitions, the base of cli.main.self_s."""
    self_t = rec.self_times()
    every, measured = {}, {}
    for s in rec.spans:
        every.setdefault(s.name, []).append(s)
        if s.phase == "measure":
            measured.setdefault(s.name, []).append(s)

    def dur(name, pool):
        return [s.duration for s in pool.get(name, [])]

    def own(name, pool):
        return [self_t[s.id] for s in pool.get(name, [])]

    def mean(values):
        return _ratio(sum(values), len(values))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in every.get(name, []))

    n_glyph = len(measured.get("pipeline.analyze_glyph", []))
    n_train_all = len(every.get("pipeline.train_all", []))
    epochs = attr_sum("nn.train", "epochs")

    def per_glyph_ms(values):
        return 1000.0 * _ratio(sum(values), n_glyph)

    return {
        "raster.load_image.ms_per_call": 1000.0 * mean(dur("raster.load_image", measured)),
        "raster.save_pbm.ms_per_call": 1000.0 * mean(dur("raster.save_pbm", every)),
        "raster.thin_to_convergence.self_ms_per_glyph": per_glyph_ms(own("raster.thin_to_convergence", measured)),
        "raster.thin_to_convergence.calls_per_glyph": _ratio(len(measured.get("raster.thin_to_convergence", [])), n_glyph),
        "raster.thin_to_convergence.ms_p99_per_call": 1000.0 * _p99(dur("raster.thin_to_convergence", measured)),
        "raster.normalize.self_ms_per_glyph": per_glyph_ms(own("raster.normalize", measured)),
        "raster.prune.ms_per_glyph": per_glyph_ms(dur("raster.prune", measured)),
        "structural.detect_shirorekha.ms_per_glyph": per_glyph_ms(dur("structural.detect_shirorekha", measured)),
        "structural.detect_spines.ms_per_glyph": per_glyph_ms(dur("structural.detect_spines", measured)),
        "features.extract_features.ms_per_glyph": per_glyph_ms(dur("features.extract_features", measured)),
        "nn.train.s_per_group": mean(dur("nn.train", every)),
        "nn.train.epochs": _ratio(epochs, n_train_all),
        "nn.loss_and_gradient.calls": _ratio(len(every.get("nn.loss_and_gradient", [])), n_train_all),
        "nn.train.accepted_step_ratio": _ratio(attr_sum("nn.train", "accepted"), epochs),
        "nn.forward.us_per_call": 1e6 * mean(dur("nn.forward", measured)),
        "synth.generate_corpus.ms_per_glyph": 1000.0
        * _ratio(sum(dur("synth.generate_corpus", every)), attr_sum("synth.generate_corpus", "glyphs")),
        "synth.write_corpus.ms_per_glyph": 1000.0
        * _ratio(sum(dur("synth.write_corpus", every)), attr_sum("synth.write_corpus", "glyphs")),
        "pipeline.analyze_glyph.calls_per_corpus_glyph": _ratio(n_glyph, corpus_glyphs),
        "pipeline.analyze_glyph.ms_per_call": 1000.0 * mean(dur("pipeline.analyze_glyph", measured)),
        "pipeline.train_all.self_s": mean(own("pipeline.train_all", every)),
        "pipeline.evaluate.self_s": mean(own("pipeline.evaluate", every)),
        "pipeline.load_corpus.s": mean(dur("pipeline.load_corpus", every)),
        "pipeline.load_modelset.ms": 1000.0 * mean(dur("pipeline.load_modelset", every)),
        "cli.main.self_s": _ratio(sum(own("cli.main", measured)), passes),
        "pipeline.routing_errors": routing_errors,
        "trace.overhead_ms": overhead_ms,
    }
