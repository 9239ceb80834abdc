import contextlib
import dataclasses
import io
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devoc import cli, features, nn, pipeline, raster, synth
from devoc.config import (
    BadConfigValueError,
    Config,
    ConfigError,
    UnknownConfigKeyError,
    load_config,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> train run shared by the CLI tests (they only read it)."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    models = str(root / "models")
    assert cli.main(["--quiet", "synth", corpus, "--per-class", "10", "--amplitude", "0"]) == cli.EXIT_OK
    assert cli.main(["--quiet", "train", corpus, models]) == cli.EXIT_OK
    return corpus, models


def copy_models(models, tmp_path):
    """A private copy of the shared model set, safe to corrupt."""
    return shutil.copytree(models, str(tmp_path / "models"))


def first_glyph(corpus):
    return os.path.join(corpus, synth.read_manifest(corpus)[0].path)


def with_config(tmp_path, data):
    path = tmp_path / "devoc.cfg"
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return ["--config", str(path)]


def edited_corpus(corpus, tmp_path, edit):
    """A private copy of the shared corpus whose manifest text is edit(text)."""
    corpus = shutil.copytree(corpus, str(tmp_path / "corpus"))
    manifest = tmp_path / "corpus" / "manifest.csv"
    manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")
    return corpus


def truncate(path, keep=20):
    """Cut a corpus glyph file to its first keep bytes."""
    data = open(path, "rb").read()
    open(path, "wb").write(data[:keep])


def tree(root):
    """Corpus-relative path -> bytes of every file under root."""
    return {
        os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
        for d, _, files in os.walk(root)
        for f in files
    }


class TestConfigFile:
    def test_defaults_without_file(self):
        assert load_config(None) == Config()

    def test_keys_and_defaults_are_pinned(self):
        assert dataclasses.asdict(load_config(None)) == {
            "learning_rate": 0.01,
            "momentum": 0.95,
            "min_gradient": 1e-8,
            "max_epochs": 500,
            "trainer": "scg",
            "seed": 0,
            "n_hidden": 40,
            "step_tol": 2,
            "drift_tol_frac": 0.10,
            "full_span": 0.85,
            "partial_span": 0.25,
            "spine_height_frac": 0.75,
            "mid_mass_tol": 5,
            "max_consecutive_up": 100,
            "max_gap": 2,
            "max_spur": 3,
            "feature_cap": 5.0,
            "amplitude": 2,
            "per_class": 100,
        }

    def test_parse_overrides_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nstep_tol = 3\nfull_span=0.9  # trailing\n\ntrainer = momentum\n")
        cfg = load_config(str(p))
        assert cfg.step_tol == 3 and cfg.full_span == 0.9 and cfg.trainer == "momentum"
        assert cfg.partial_span == 0.25  # untouched default

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("step_tolerance = 3\n")
        with pytest.raises(UnknownConfigKeyError):
            load_config(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("step_tol = huge\n")
        with pytest.raises(BadConfigValueError):
            load_config(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize(
        "line",
        ["full_span = nan", "learning_rate = inf", "drift_tol_frac = -inf", "n_hidden = 0",
         "feature_cap = -1", "trainer = foo"],
    )
    def test_out_of_range_value_fails_at_load(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(BadConfigValueError, match=line.split()[0]):
            load_config(str(p))

    @pytest.mark.parametrize(
        "line",
        ["drift_tol_frac = 1e308", "spine_height_frac = 1.5", "full_span = -1", "partial_span = 0.9",
         "step_tol = -5", "mid_mass_tol = -1", "max_consecutive_up = -1", "max_gap = -1", "max_spur = -1"],
    )
    def test_value_stage_one_cannot_use_fails_at_load(self, tmp_path, line):
        # partial_span 0.9 lies above the default full_span 0.85
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(BadConfigValueError, match="^%s: %s " % (re.escape(str(p)), line.split()[0])):
            load_config(str(p))

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"seed = 1\n\xff\n")
        with pytest.raises(ConfigError, match="c.cfg is not UTF-8 text"):
            load_config(str(p))


class TestSynthCommand:
    def test_writes_manifest_and_images(self, workspace):
        corpus, _ = workspace
        assert os.path.exists(os.path.join(corpus, "manifest.csv"))
        entries = synth.read_manifest(corpus)
        assert len(entries) == 120
        assert os.path.exists(os.path.join(corpus, entries[0].path))

    def test_byte_identical_reruns(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for out in (a, b):
            assert cli.main(["--quiet", "synth", out, "--per-class", "3", "--amplitude", "2"]) == 0
        assert open(os.path.join(a, "manifest.csv"), "rb").read() == open(
            os.path.join(b, "manifest.csv"), "rb"
        ).read()
        rel = synth.read_manifest(a)[0].path
        assert open(os.path.join(a, rel), "rb").read() == open(os.path.join(b, rel), "rb").read()

    def test_writes_what_write_corpus_writes_for_the_rendered_samples(self, tmp_path):
        eager = str(tmp_path / "eager")
        synth.write_corpus(synth.generate_corpus(synth.default_templates(), 4, 2, 7), eager)
        lazy = str(tmp_path / "lazy")
        assert cli.main(["--quiet", "--seed", "7", "synth", lazy, "--per-class", "4", "--amplitude", "2"]) == 0
        assert tree(lazy) == tree(eager)

    def test_seed_flag_changes_corpus(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert cli.main(["--quiet", "--seed", "1", "synth", a, "--per-class", "2", "--amplitude", "2"]) == 0
        assert cli.main(["--quiet", "--seed", "2", "synth", b, "--per-class", "2", "--amplitude", "2"]) == 0
        rel = synth.read_manifest(a)[0].path
        assert open(os.path.join(a, rel), "rb").read() != open(os.path.join(b, rel), "rb").read()

    def test_zero_per_class_is_io_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["--quiet", "synth", out, "--per-class", "0"]) == cli.EXIT_IO
        assert "error: per_class must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_zero_per_class_in_config_file_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "devoc.cfg"
        cfg.write_text("per_class = 0\n")
        out = str(tmp_path / "out")
        assert cli.main(["--quiet", "--config", str(cfg), "synth", out]) == cli.EXIT_IO
        assert "error: per_class must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("amplitude", ["-3", "9"])
    def test_amplitude_outside_0_to_3_is_io_error(self, tmp_path, capsys, amplitude):
        out = str(tmp_path / "out")
        assert cli.main(["--quiet", "synth", out, "--per-class", "1", "--amplitude", amplitude]) == cli.EXIT_IO
        assert "error: amplitude must be in 0..3" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTrainCommand:
    def test_model_files_exist(self, workspace):
        _, models = workspace
        assert os.path.exists(os.path.join(models, "modelset.txt"))
        for group in ("full_end", "full_mid", "full_none", "partial_end"):
            assert os.path.exists(os.path.join(models, group + ".mlp"))

    def test_missing_corpus_is_io_error(self, tmp_path):
        assert cli.main(["--quiet", "train", str(tmp_path / "nope"), str(tmp_path / "m")]) == cli.EXIT_IO

    def test_single_class_corpus_is_data_error(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert cli.main(["--quiet", "synth", corpus, "--per-class", "4", "--amplitude", "0"]) == 0
        manifest = os.path.join(corpus, "manifest.csv")
        lines = open(manifest).read().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if ",cha," in l]
        open(manifest, "w").write("\n".join(kept) + "\n")
        code = cli.main(["--quiet", "train", corpus, str(tmp_path / "m")])
        assert code == cli.EXIT_DATA


    def test_quoted_label_with_comma_is_io_error(self, workspace, tmp_path, capsys):
        # csv would read it, but the labels line of a model file could not hold it
        corpus = edited_corpus(workspace[0], tmp_path, lambda t: t.replace(",cha,", ',"a,b",'))
        models = tmp_path / "m"
        assert cli.main(["--quiet", "train", corpus, str(models)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: %s:2: " % os.path.join(corpus, "manifest.csv"))
        assert not models.exists()

    def test_label_no_model_file_can_hold_writes_nothing(self, workspace, tmp_path, monkeypatch, capsys):
        # the labels line of a model file cannot hold a label ending in
        # U+2028, so read_manifest refuses it before any glyph is analysed
        corpus = edited_corpus(workspace[0], tmp_path, lambda t: t.replace(",bha,", ",bha\u2028,"))
        manifest = os.path.join(corpus, "manifest.csv")
        line = next(i for i, l in enumerate(open(manifest, encoding="utf-8"), 1) if ",bha\u2028," in l)
        calls = []
        analyze = pipeline.analyze_glyph
        monkeypatch.setattr(pipeline, "analyze_glyph", lambda *a: calls.append(a) or analyze(*a))
        models = tmp_path / "m"
        assert cli.main(["--quiet", "train", corpus, str(models)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: %s:%d: " % (manifest, line)) and "line break" in err
        assert calls == []
        assert not models.exists()

    def test_blank_corpus_glyph_is_empty_error(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert cli.main(["--quiet", "synth", corpus, "--per-class", "2", "--amplitude", "0"]) == 0
        entry = synth.read_manifest(corpus)[0]
        assert entry.split == "train"
        raster.save_pbm(os.path.join(corpus, entry.path), np.zeros((20, 20), dtype=bool))
        assert cli.main(["--quiet", "train", corpus, str(tmp_path / "m")]) == cli.EXIT_EMPTY
        err = capsys.readouterr().err
        assert corpus in err and entry.path in err


    def test_truncated_corpus_glyph_is_io_error_naming_it(self, workspace, tmp_path, capsys):
        corpus = shutil.copytree(workspace[0], str(tmp_path / "corpus"))
        entry = synth.read_manifest(corpus)[0]
        assert entry.split == "train"
        truncate(os.path.join(corpus, entry.path))
        assert cli.main(["--quiet", "train", corpus, str(tmp_path / "m")]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: %s: P1 raster has 9 pixels" % entry.path)

    def test_reads_only_the_train_split(self, workspace, tmp_path):
        corpus = shutil.copytree(workspace[0], str(tmp_path / "corpus"))
        for entry in synth.read_manifest(corpus):
            if entry.split == "test":
                truncate(os.path.join(corpus, entry.path))
        models = str(tmp_path / "m")
        assert cli.main(["--quiet", "train", corpus, models]) == cli.EXIT_OK
        trained = {f: data for f, data in tree(workspace[1]).items() if f not in ("report.csv", "predictions.csv")}
        assert tree(models) == trained

    def test_insufficient_data_is_found_before_a_glyph_is_read(self, workspace, tmp_path, capsys):
        # one sample of cha and a malformed glyph: the manifest check runs first
        corpus = edited_corpus(
            workspace[0], tmp_path, lambda t: "".join(l for l in t.splitlines(True) if ",cha," not in l or "/0000." in l)
        )
        truncate(os.path.join(corpus, synth.read_manifest(corpus)[-1].path))
        assert cli.main(["--quiet", "train", corpus, str(tmp_path / "m")]) == cli.EXIT_DATA
        assert "class 'cha' in group 'full_end' has 1 sample(s)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda t: t.replace(",cha,full_end,train", ",cha,full_end,test"),
                "class 'cha' in group 'full_end' has 0 sample(s)",
            ),
            (lambda t: t.replace(",train\n", ",test\n"), "no train-split glyph"),
            (lambda t: t.splitlines(True)[0], "no train-split glyph"),
        ],
        ids=["class-only-in-test", "no-train-row", "no-row"],
    )
    def test_training_data_is_counted_on_the_train_split(self, workspace, tmp_path, capsys, edit, message):
        corpus = edited_corpus(workspace[0], tmp_path, edit)
        models = tmp_path / "m"
        assert cli.main(["--quiet", "train", corpus, str(models)]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not models.exists()


@pytest.fixture(scope="module")
def large_corpus(tmp_path_factory):
    """A corpus of 552 train glyphs, 9 batches: train pools it by default."""
    corpus = str(tmp_path_factory.mktemp("large") / "corpus")
    assert cli.main(["--quiet", "synth", corpus, "--per-class", "64"]) == cli.EXIT_OK
    return corpus


def train_with_workers(monkeypatch, capsys, workers, corpus, models):
    """Exit code, standard output and standard error of `devoc train` with
    analyze_corpus set to use workers processes."""
    monkeypatch.setattr(pipeline, "corpus_workers", lambda n: workers)
    code = cli.main(["train", corpus, models])
    assert multiprocessing.active_children() == []
    return (code,) + tuple(capsys.readouterr())


class TestTrainWorkers:
    def test_model_bytes_do_not_depend_on_the_worker_count(self, large_corpus, tmp_path, monkeypatch, capsys):
        files = []
        for workers in (1, 2):
            models = str(tmp_path / ("m%d" % workers))
            code, out, _ = train_with_workers(monkeypatch, capsys, workers, large_corpus, models)
            assert code == cli.EXIT_OK
            assert "analysed 552 train glyphs in %d worker process(es)\n" % workers in out
            files.append(tree(models))
        assert {"modelset.txt", "full_end.mlp", "train_analysis.csv"} <= set(files[0])
        assert files[0] == files[1]

    @pytest.mark.parametrize("faults", [("truncated", "blank"), ("blank",)])
    def test_failures_do_not_depend_on_the_worker_count(self, large_corpus, tmp_path, monkeypatch, capsys, faults):
        # a truncated glyph in batch 3, a blank one in batch 7
        corpus = shutil.copytree(large_corpus, str(tmp_path / "corpus"))
        train = [e.path for e in synth.read_manifest(corpus) if e.split == "train"]
        batch = pipeline.BATCH
        bad = dict(zip(("truncated", "blank"), (train[3 * batch + 5], train[7 * batch + 9])))
        if "truncated" in faults:
            truncate(os.path.join(corpus, bad["truncated"]))
        raster.save_pbm(os.path.join(corpus, bad["blank"]), np.zeros((20, 20), dtype=bool))
        runs = [train_with_workers(monkeypatch, capsys, w, corpus, str(tmp_path / "m")) for w in (1, 2)]
        assert runs[0] == runs[1]
        code, _, err = runs[0]
        assert code == (cli.EXIT_IO if "truncated" in faults else cli.EXIT_EMPTY)
        assert bad[faults[0]] in err

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command, split", [("train", "train"), ("eval", "test")])
    def test_the_first_faulty_glyph_in_manifest_order_decides(
        self, workspace, tmp_path, monkeypatch, capsys, workers, command, split
    ):
        # a blank glyph at position 5 of the split and a truncated one at
        # position 10, both among the first 64 glyphs of the manifest
        corpus = shutil.copytree(workspace[0], str(tmp_path / "corpus"))
        paths = [e.path for e in synth.read_manifest(corpus) if e.split == split]
        blank, cut = paths[5], paths[10]
        raster.save_pbm(os.path.join(corpus, blank), np.zeros((20, 20), dtype=bool))
        truncate(os.path.join(corpus, cut))
        models = copy_models(workspace[1], tmp_path)
        monkeypatch.setattr(pipeline, "corpus_workers", lambda n: workers)
        assert cli.main(["--quiet", command, corpus, models]) == cli.EXIT_EMPTY
        err = capsys.readouterr().err
        assert blank in err and cut not in err
        assert multiprocessing.active_children() == []

    def test_a_dying_worker_is_an_io_error_naming_its_batch(self, workspace, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        in_worker = lambda *a: os._exit(9) if os.getpid() != parent else pytest.fail("analysed in-process")
        monkeypatch.setattr(pipeline, "analyze_glyph", in_worker)
        code, _, err = train_with_workers(monkeypatch, capsys, 2, workspace[0], str(tmp_path / "m"))
        first = next(e.path for e in synth.read_manifest(workspace[0]) if e.split == "train")
        assert code == cli.EXIT_IO
        assert err == "error: a worker process died; the batches from %s on were not analysed\n" % first
        assert not (tmp_path / "m").exists()

    def test_a_worker_dying_in_a_later_batch_names_no_batch_after_it(
        self, large_corpus, tmp_path, monkeypatch, capsys
    ):
        # only the 10th glyph of batch 7 kills its worker; the error names the
        # first batch left unanalysed, which may come before batch 7
        train = [e.path for e in synth.read_manifest(large_corpus) if e.split == "train"]
        fatal = pipeline._digest(raster.load_image(os.path.join(large_corpus, train[7 * pipeline.BATCH + 9])))
        analyze_glyph = pipeline.analyze_glyph
        parent = os.getpid()

        def dies_on_fatal(img, cfg=None):
            if pipeline._digest(img) == fatal and os.getpid() != parent:
                os._exit(9)
            return analyze_glyph(img, cfg)

        monkeypatch.setattr(pipeline, "analyze_glyph", dies_on_fatal)
        code, out, err = train_with_workers(monkeypatch, capsys, 2, large_corpus, str(tmp_path / "m"))
        assert code == cli.EXIT_IO and out == ""
        named = re.fullmatch(r"error: a worker process died; the batches from (\S+) on were not analysed\n", err)
        assert named and named.group(1) in train[: 8 * pipeline.BATCH : pipeline.BATCH]
        assert not (tmp_path / "m").exists()


class TestEvalCommand:
    def test_prints_table_and_writes_reports(self, workspace, capsys):
        corpus, models = workspace
        assert cli.main(["--quiet", "eval", corpus, models]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[0] == "group"
        assert "overall test accuracy:" in out
        assert os.path.exists(os.path.join(models, "report.csv"))
        assert os.path.exists(os.path.join(models, "predictions.csv"))

    def test_missing_models_is_io_error(self, workspace, tmp_path):
        corpus, _ = workspace
        assert cli.main(["--quiet", "eval", corpus, str(tmp_path / "nope")]) == cli.EXIT_IO

    def test_wrong_model_version_is_io_error(self, workspace, tmp_path, capsys):
        corpus, models = workspace
        broken = copy_models(models, tmp_path)
        path = os.path.join(broken, "full_end.mlp")
        text = open(path).read().replace("DEVOC-MLP v1", "DEVOC-MLP v2", 1)
        open(path, "w").write(text)
        assert cli.main(["--quiet", "eval", corpus, broken]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")


    def test_blank_corpus_glyph_is_empty_error(self, workspace, tmp_path, capsys):
        corpus, models = workspace
        corpus = shutil.copytree(corpus, str(tmp_path / "corpus"))
        entry = synth.read_manifest(corpus)[-1]
        raster.save_pbm(os.path.join(corpus, entry.path), np.zeros((20, 20), dtype=bool))
        assert cli.main(["--quiet", "eval", corpus, copy_models(models, tmp_path)]) == cli.EXIT_EMPTY
        err = capsys.readouterr().err
        assert corpus in err and entry.path in err

    def test_train_glyph_blanked_after_training_is_empty_error(self, workspace, tmp_path, capsys):
        # its recorded analysis no longer matches the image, so eval analyses it
        corpus, models = workspace
        corpus = shutil.copytree(corpus, str(tmp_path / "corpus"))
        entry = synth.read_manifest(corpus)[0]
        assert entry.split == "train"
        raster.save_pbm(os.path.join(corpus, entry.path), np.zeros((20, 20), dtype=bool))
        assert cli.main(["--quiet", "eval", corpus, copy_models(models, tmp_path)]) == cli.EXIT_EMPTY
        err = capsys.readouterr().err
        assert corpus in err and entry.path in err


    def test_truncated_corpus_glyph_is_io_error_naming_it(self, workspace, tmp_path, capsys):
        corpus, models = workspace
        corpus = shutil.copytree(corpus, str(tmp_path / "corpus"))
        entry = synth.read_manifest(corpus)[-1]
        assert entry.split == "test"
        truncate(os.path.join(corpus, entry.path))
        assert cli.main(["--quiet", "eval", corpus, copy_models(models, tmp_path)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: %s: P1 raster has 9 pixels" % entry.path)


def eval_outputs(corpus, models, argv=()):
    """The bytes of report.csv and predictions.csv after `devoc eval`, and
    its standard output."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(list(argv) + ["eval", corpus, models]) == cli.EXIT_OK
    names = ("report.csv", "predictions.csv")
    return [open(os.path.join(models, n), "rb").read() for n in names], out.getvalue()


class TestTrainAnalysisRecord:
    def test_written_beside_the_models(self, workspace):
        corpus, models = workspace
        train = [e.path for e in synth.read_manifest(corpus) if e.split == "train"]
        lines = open(os.path.join(models, pipeline.TRAIN_ANALYSIS_NAME), encoding="utf-8").read().splitlines()
        assert lines[0].startswith("DEVOC-TRAIN-ANALYSIS v2 step_tol=2 ")
        assert lines[0].endswith(" max_spur=3")
        assert [line.split(",")[0] for line in lines[2:]] == train

    def test_eval_reports_the_same_bytes_with_and_without_it(self, workspace, tmp_path):
        corpus, models = workspace
        models = copy_models(models, tmp_path)
        reused, out = eval_outputs(corpus, models)
        n = len(synth.read_manifest(corpus))
        n_train = sum(e.split == "train" for e in synth.read_manifest(corpus))
        assert "reused the training analysis of %d of %d glyphs, analysed %d\n" % (n_train, n, n - n_train) in out
        os.remove(os.path.join(models, pipeline.TRAIN_ANALYSIS_NAME))
        fresh, out = eval_outputs(corpus, models)
        assert "reused the training analysis of 0 of %d glyphs, analysed %d\n" % (n, n) in out
        assert reused == fresh

    @pytest.mark.parametrize("config, analysed", [("", "test"), ("step_tol = 3\n", "all")])
    def test_eval_analyses_what_the_record_does_not_hold(self, workspace, tmp_path, monkeypatch, config, analysed):
        # a record made under other stage-one settings is ignored
        corpus, models = workspace
        calls = []
        analyze = pipeline.analyze_glyph

        def counted(*args):
            calls.append(args)
            return analyze(*args)

        monkeypatch.setattr(pipeline, "analyze_glyph", counted)
        eval_outputs(corpus, copy_models(models, tmp_path), with_config(tmp_path, config) + ["--quiet"])
        entries = synth.read_manifest(corpus)
        assert len(calls) == sum(analysed in ("all", e.split) for e in entries)


def traced_peaks(root, per_class):
    """The traced peak bytes of `devoc synth`, `train` and `eval` over a new
    corpus of 12 * per_class glyphs."""
    corpus, models = os.path.join(root, "corpus%d" % per_class), os.path.join(root, "models%d" % per_class)
    peaks = {}
    for argv in (["synth", corpus, "--per-class", str(per_class)], ["train", corpus, models], ["eval", corpus, models]):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--quiet"] + argv) == cli.EXIT_OK
            peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


class TestBoundedMemory:
    def test_corpus_commands_hold_a_batch_of_images_not_the_corpus(self, tmp_path):
        # 360 more glyphs are 3.6 MB of 100x100 bool images; a command that
        # held them all would peak that much higher
        traced_peaks(str(tmp_path), 2)  # first-call caches are not per glyph
        small, large = traced_peaks(str(tmp_path), 10), traced_peaks(str(tmp_path), 40)
        growth = {command: large[command] - small[command] for command in small}
        assert all(grew < 1.2e6 for grew in growth.values()), growth

    def test_train_and_eval_keep_little_per_glyph(self, tmp_path):
        # under Python 3.11.7 train grows by about 600 and eval by about 700
        # bytes per added glyph; a record object, a 32-count array and a
        # StructuralClass per glyph, and per-row label strings, put both
        # above 1,100
        traced_peaks(str(tmp_path), 2)
        small, large = traced_peaks(str(tmp_path), 10), traced_peaks(str(tmp_path), 40)
        per_glyph = {command: (large[command] - small[command]) / 360 for command in ("train", "eval")}
        assert all(grew < 900 for grew in per_glyph.values()), per_glyph


class TestPredictCommand:
    def test_output_format(self, workspace, capsys):
        corpus, models = workspace
        entry = synth.read_manifest(corpus)[0]
        img = os.path.join(corpus, entry.path)
        assert cli.main(["--quiet", "predict", img, models]) == cli.EXIT_OK
        line = capsys.readouterr().out.strip()
        label, group, conf = line.split("\t")
        assert label == entry.class_label
        assert group == entry.group
        assert 0.0 < float(conf) <= 1.0

    def test_truncated_model_is_io_error(self, workspace, tmp_path, capsys):
        corpus, models = workspace
        broken = copy_models(models, tmp_path)
        path = os.path.join(broken, "full_end.mlp")
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:-3]) + "\n")
        img = os.path.join(corpus, synth.read_manifest(corpus)[0].path)
        assert cli.main(["--quiet", "predict", img, broken]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "damage",
        ["last three lines lost", "not UTF-8", "missing", "no hidden unit", "one output", "a repeated label"],
    )
    def test_model_file_errors_name_the_file_once(self, workspace, tmp_path, capsys, damage):
        corpus, models = workspace
        broken = copy_models(models, tmp_path)
        path = os.path.join(broken, "full_mid.mlp")
        if damage == "missing":
            os.remove(path)
        elif damage in ("no hidden unit", "one output"):
            # sizes training never makes, in an otherwise well-formed file
            n_hidden, n_out = (0, 2) if damage == "no hidden unit" else (40, 1)
            net = nn.Mlp(np.zeros((n_hidden, 32)), np.zeros(n_hidden), np.zeros((n_out, n_hidden)), np.zeros(n_out))
            nn.save_model(path, net, ["k%d" % k for k in range(n_out)])
        elif damage == "a repeated label":  # the first label again in the last place
            lines = open(path, encoding="utf-8").read().splitlines()
            labels = lines[3][len("labels ") :].split(",")
            lines[3] = "labels " + ",".join(labels[:-1] + labels[:1])
            open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        else:
            lines = open(path).read().splitlines()
            data = "\n".join(lines[:-3]).encode() if damage == "last three lines lost" else b"DEVOC-MLP v1\n\xff\n"
            open(path, "wb").write(data + b"\n")
        img = os.path.join(corpus, synth.read_manifest(corpus)[0].path)
        assert cli.main(["--quiet", "predict", img, broken]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(path) == 1
        if damage == "last three lines lost":
            assert err == "error: %s: expected 1443 parameters, found 1440\n" % path

    def predict_with_broken(self, workspace, tmp_path, name, data):
        corpus, models = workspace
        broken = copy_models(models, tmp_path)
        with open(os.path.join(broken, name), "wb") as fh:
            fh.write(data)
        img = os.path.join(corpus, synth.read_manifest(corpus)[0].path)
        return cli.main(["--quiet", "predict", img, broken])

    def test_unknown_group_key_in_modelset_is_io_error(self, workspace, tmp_path, capsys):
        data = b"DEVOC-MODELSET v1\nbogus_key full_end.mlp\n"
        assert self.predict_with_broken(workspace, tmp_path, "modelset.txt", data) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "fname", ["full_mid.mlp", "../elsewhere.mlp", "{tmp}/elsewhere.mlp", "../passwd"],
        ids=["another group's file", "a model beside the set", "an absolute path", "a file that is no model"],
    )
    def test_modelset_names_only_its_own_model_files(self, workspace, tmp_path, capsys, fname):
        models = workspace[1]
        shutil.copy(os.path.join(models, "full_end.mlp"), str(tmp_path / "elsewhere.mlp"))
        (tmp_path / "passwd").write_text("root:x:0:0:root:/root:/bin/sh\n")
        fname = fname.format(tmp=tmp_path)
        manifest = open(os.path.join(models, "modelset.txt")).read()
        assert "\nfull_end full_end.mlp\n" in manifest
        data = manifest.replace("\nfull_end full_end.mlp\n", "\nfull_end %s\n" % fname)
        assert self.predict_with_broken(workspace, tmp_path, "modelset.txt", data.encode()) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err == "error: bad modelset line 'full_end %s': the model of full_end is full_end.mlp\n" % fname

    def test_modelset_listing_a_group_twice_is_io_error(self, workspace, tmp_path, capsys):
        data = open(os.path.join(workspace[1], "modelset.txt")).read() + "full_end full_end.mlp\n"
        assert self.predict_with_broken(workspace, tmp_path, "modelset.txt", data.encode()) == cli.EXIT_IO
        assert capsys.readouterr().err == "error: bad modelset line 'full_end full_end.mlp': full_end is listed twice\n"

    def test_non_utf8_modelset_is_io_error(self, workspace, tmp_path, capsys):
        data = b"DEVOC-MODELSET v1\nfull_end full_\xff.mlp\n"
        assert self.predict_with_broken(workspace, tmp_path, "modelset.txt", data) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_model_file_is_io_error(self, workspace, tmp_path, capsys):
        data = b"DEVOC-MLP v1\n\xff\xfe\n"
        assert self.predict_with_broken(workspace, tmp_path, "full_end.mlp", data) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    def test_model_of_the_wrong_input_width_is_io_error_naming_it(self, workspace, tmp_path, capsys):
        narrow = str(tmp_path / "narrow.mlp")
        nn.save_model(narrow, nn.init_mlp(4, 3, seed=0, n_in=features.N_FEATURES - 1), ["cha", "kha", "ssa"])
        data = open(narrow, "rb").read()
        assert self.predict_with_broken(workspace, tmp_path, "full_end.mlp", data) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and os.path.join("models", "full_end.mlp") in err

    def test_missing_image_is_io_error(self, workspace, tmp_path):
        _, models = workspace
        assert cli.main(["--quiet", "predict", str(tmp_path / "no.pbm"), models]) == cli.EXIT_IO

    def test_empty_glyph_exit_code(self, workspace, tmp_path):
        _, models = workspace
        blank = str(tmp_path / "blank.pbm")
        raster.save_pbm(blank, np.zeros((20, 20), dtype=bool))
        assert cli.main(["--quiet", "predict", blank, models]) == cli.EXIT_EMPTY


class TestInspectCommand:
    def test_artifacts(self, workspace, tmp_path):
        corpus, _ = workspace
        entry = synth.read_manifest(corpus)[0]
        img = os.path.join(corpus, entry.path)
        outdir = str(tmp_path / "debug")
        assert cli.main(["--quiet", "inspect", img, outdir]) == cli.EXIT_OK
        stem = os.path.splitext(os.path.basename(img))[0]
        for suffix in (".skel.pbm", ".shiro.pbm", ".spine.pbm", ".summary.txt"):
            assert os.path.exists(os.path.join(outdir, stem + suffix))
        summary = open(os.path.join(outdir, stem + ".summary.txt")).read()
        assert summary.startswith("group: %s" % entry.group)
        assert "features:" in summary

    def test_empty_glyph(self, tmp_path):
        blank = str(tmp_path / "blank.pbm")
        raster.save_pbm(blank, np.zeros((10, 10), dtype=bool))
        assert cli.main(["--quiet", "inspect", blank, str(tmp_path / "d")]) == cli.EXIT_EMPTY

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.pbm"
        bad.write_text("not a pbm at all")
        assert cli.main(["--quiet", "inspect", str(bad), str(tmp_path / "d")]) == cli.EXIT_IO


class TestGlobalFlags:
    def test_unknown_config_key_is_io_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bogus = 1\n")
        assert cli.main(["--config", str(p), "--quiet", "synth", str(tmp_path / "o")]) == cli.EXIT_IO

    def test_config_file_feeds_synth(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("per_class = 2\namplitude = 0\n")
        out = str(tmp_path / "o")
        assert cli.main(["--config", str(p), "--quiet", "synth", out]) == cli.EXIT_OK
        assert len(synth.read_manifest(out)) == 24


def _train(cfg):
    return lambda ws, tmp: with_config(tmp, cfg) + ["train", ws[0], str(tmp / "m")]


def _predict(cfg):
    return lambda ws, tmp: with_config(tmp, cfg) + ["predict", first_glyph(ws[0]), ws[1]]


def _eval(cfg):
    return lambda ws, tmp: with_config(tmp, cfg) + ["eval", ws[0], copy_models(ws[1], tmp)]


def _train_on_manifest(edit):
    return lambda ws, tmp: ["train", edited_corpus(ws[0], tmp, edit), str(tmp / "m")]


def _eval_with_record(data):
    def argv(ws, tmp):
        models = copy_models(ws[1], tmp)
        with open(os.path.join(models, pipeline.TRAIN_ANALYSIS_NAME), "w", encoding="utf-8") as fh:
            fh.write(data(open(os.path.join(ws[1], pipeline.TRAIN_ANALYSIS_NAME), encoding="utf-8").read()))
        return ["eval", ws[0], models]

    return argv


def _inspect_into_file(ws, tmp):
    (tmp / "taken").write_text("")
    return ["inspect", first_glyph(ws[0]), str(tmp / "taken")]


def _eval_report_is_dir(ws, tmp):
    models = copy_models(ws[1], tmp)
    report = os.path.join(models, "report.csv")
    if os.path.exists(report):  # left by an earlier eval of the shared models
        os.remove(report)
    os.mkdir(report)
    return ["eval", ws[0], models]


# Bad inputs that must exit 1 with an error line: no traceback, no silent
# success on a value the program cannot use.
BAD_INPUTS = {
    "train-negative-learning-rate": _train("learning_rate = -1"),
    "train-unknown-trainer": _train("trainer = foo"),
    "train-zero-hidden": _train("n_hidden = 0"),
    "train-negative-max-epochs": _train("max_epochs = -5"),
    # 2.2 EiB of weights: beyond any address space, so the allocation fails
    # at once whatever the host's overcommit setting
    "train-unallocatable-hidden-layer": _train("n_hidden = 10000000000000000"),
    "train-momentum-nan-learning-rate": _train("trainer = momentum\nlearning_rate = nan"),
    "train-negative-feature-cap": _train("feature_cap = -1"),
    "predict-zero-feature-cap": _predict("feature_cap = 0"),
    "predict-nan-full-span": _predict("full_span = nan"),
    # a fraction times a length overflows math.ceil
    "predict-huge-drift-tol-frac": _predict("drift_tol_frac = 1e308"),
    "eval-huge-spine-height-frac": _eval("spine_height_frac = 1e308"),
    "eval-zero-feature-cap": _eval("feature_cap = 0"),
    "config-not-utf8": lambda ws, tmp: with_config(tmp, b"seed = 1\n\xff\n") + ["synth", str(tmp / "o")],
    "config-is-directory": lambda ws, tmp: ["--config", str(tmp), "synth", str(tmp / "o")],
    "inspect-outdir-is-file": _inspect_into_file,
    "eval-report-csv-is-directory": _eval_report_is_dir,
    "eval-record-not-a-record": _eval_with_record(lambda t: "path,digest\n"),
    "eval-record-feature-missing": _eval_with_record(lambda t: t.rsplit(",", 1)[0] + "\n"),
    "eval-record-no-final-newline": _eval_with_record(lambda t: t[:-1]),
    "manifest-missing-field": _train_on_manifest(lambda t: t + "full_end/cha/0000.pbm,cha,full_end\n"),
    "manifest-field-over-128k": _train_on_manifest(lambda t: t + "x" * (128 * 1024 + 1) + ",cha,full_end,train\n"),
    "manifest-unknown-split": _train_on_manifest(
        lambda t: t.replace(",train\n", ",bogus\n").replace(",test\n", ",bogus\n")
    ),
}


class TestFailureTable:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_1_with_error_line(self, workspace, tmp_path, capsys, case):
        assert cli.main(["--quiet"] + BAD_INPUTS[case](workspace, tmp_path)) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    def test_module_run_prints_no_traceback(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        argv = with_config(tmp_path, "learning_rate = -1\n") + ["synth", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-m", "devoc.cli"] + argv, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == cli.EXIT_IO
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    HEADS = {
        "config": [b""] + [key.encode() + b" = " for key in dataclasses.asdict(Config())],
        "manifest": [b"", b"path,class_label,group,split\n"],
        "modelset": [b"", b"DEVOC-MODELSET v1\n", b"DEVOC-MODELSET v1\nfull_end "],
        "record": [
            b"",
            pipeline._record_header(Config()).encode() + b"\n",
            ("%s\n%s\n" % (pipeline._record_header(Config()), pipeline._RECORD_COLUMNS)).encode(),
        ],
    }

    @settings(max_examples=100, deadline=None)
    @given(
        head=st.sampled_from([(name, head) for name, heads in HEADS.items() for head in heads]),
        tail=st.binary(max_size=200),
    )
    def test_arbitrary_file_bytes_give_an_exit_code(self, workspace, head, tail):
        corpus, models = workspace
        target, data = head[0], head[1] + tail
        with tempfile.TemporaryDirectory() as tmp:
            if target == "config":
                argv = ["--config", os.path.join(tmp, "devoc.cfg"), "predict", first_glyph(corpus), models]
                path = argv[1]
            elif target == "manifest":
                argv = ["train", tmp, os.path.join(tmp, "m")]
                path = os.path.join(tmp, "manifest.csv")
            elif target == "modelset":
                broken = shutil.copytree(models, os.path.join(tmp, "models"))
                argv = ["predict", first_glyph(corpus), broken]
                path = os.path.join(broken, "modelset.txt")
            else:
                broken = shutil.copytree(models, os.path.join(tmp, "models"))
                argv = ["eval", corpus, broken]
                path = os.path.join(broken, pipeline.TRAIN_ANALYSIS_NAME)
            with open(path, "wb") as fh:
                fh.write(data)
            assert cli.main(["--quiet"] + argv) in (0, 1, 2, 3)


def test_devanagari_label_round_trip(tmp_path, capsys):
    cha, *rest = synth.default_templates()[:3]  # the three full_end classes
    templates = [dataclasses.replace(cha, class_label="च")] + rest
    corpus = str(tmp_path / "corpus")
    models = str(tmp_path / "models")
    synth.write_corpus(synth.generate_corpus(templates, per_class=4), corpus)
    assert cli.main(["--quiet", "train", corpus, models]) == cli.EXIT_OK
    assert cli.main(["--quiet", "eval", corpus, models]) == cli.EXIT_OK
    labels = open(os.path.join(models, "full_end.mlp"), encoding="utf-8").read().splitlines()[3]
    assert labels == "labels kha,ssa,च"
    predictions = open(os.path.join(models, "predictions.csv"), encoding="utf-8").read()
    assert "full_end/च/0000.pbm,च,full_end,च," in predictions
    capsys.readouterr()
    assert cli.main(["--quiet", "predict", os.path.join(corpus, "full_end", "च", "0001.pbm"), models]) == 0
    assert capsys.readouterr().out.split("\t")[:2] == ["च", "full_end"]
