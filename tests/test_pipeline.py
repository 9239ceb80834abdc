import dataclasses
import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from devoc import features, nn, pipeline, raster, structural, synth
from devoc.config import Config
from devoc.pipeline import (
    REJECTED,
    GroupModelSet,
    InsufficientDataError,
    MalformedModelSetError,
)

from conftest import has_full_2x2_block, ink_box


def tiny_corpus(templates, per_class=10, amplitude=0, seed=0):
    samples = synth.generate_corpus(templates, per_class, amplitude, seed)
    return pipeline.corpus_from_samples(samples)


@pytest.fixture(scope="module")
def trained(templates):
    """A small trained model set shared by the read-only tests below."""
    samples = tiny_corpus(templates)
    modelset, reports, routing_log = pipeline.train_all(samples)
    return samples, modelset, reports, routing_log


class TestPreprocess:
    def test_shape_and_width(self, templates):
        img = synth.render(templates[0], synth.JitterSpec(2, 3))
        out = pipeline.preprocess_glyph(img)
        assert out.shape == (100, 100)
        assert not has_full_2x2_block(out)
        assert out.any()

    def test_empty_raises(self):
        with pytest.raises(raster.EmptyImageError):
            pipeline.preprocess_glyph(np.zeros((50, 50), dtype=bool))

    def test_small_glyph_is_scaled_up(self):
        img = np.zeros((200, 200), dtype=bool)
        img[100, 50:80] = True
        img[100:120, 79] = True
        out = pipeline.preprocess_glyph(img)
        row_min, row_max, col_min, col_max = ink_box(out)
        assert row_max - row_min > 90 or col_max - col_min > 90


class TestAnalyze:
    def test_matches_template_truth(self, templates):
        for t in templates[:4]:
            analysis = pipeline.analyze_glyph(synth.render(t, synth.JitterSpec(0, 0)))
            assert analysis.group == t.truth
            assert analysis.raw_features.shape == (32,)

    def test_matra_column_masked_from_features(self):
        # glyph with spine + matra: features must not see the matra bar
        img = np.zeros((100, 100), dtype=bool)
        img[2, :] = True
        img[2:, 55] = True
        img[2:, 99] = True
        analysis = pipeline.analyze_glyph(img)
        assert analysis.spine.matra_col is not None
        mc = analysis.spine.matra_col
        # the matra's lower open end would land in a right-edge tile; the
        # raw features there must not count it
        from devoc import features as F

        body = analysis.skeleton.copy()
        body[:, max(mc - 1, 0) : mc + 2] = False
        assert np.array_equal(analysis.raw_features, F.extract_features(body))


    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(bool, st.tuples(st.integers(1, 60), st.integers(1, 60))))
    def test_any_bool_array_analyzes_or_is_empty(self, img):
        try:
            analysis = pipeline.analyze_glyph(img)
        except raster.EmptyImageError:
            return
        assert analysis.skeleton.shape == (100, 100)


    def test_stage_one_fingerprint(self, templates):
        # Skeleton, detected group and raw features of every glyph of a small
        # corpus, at 1 px and at a thick pen (2x replication plus one 3x3
        # dilation). All integer, so the hash does not depend on the BLAS. A
        # change that means to alter stage one updates the hash, says why and
        # bumps pipeline.TRAIN_ANALYSIS_VERSION pinned beside it: a model
        # directory's train_analysis.csv holds stage-one results of the code
        # that wrote it.
        digest = hashlib.sha256()
        for s in synth.generate_corpus(templates, 10, 2, 0):
            thick = raster.thicken(np.repeat(np.repeat(s.image, 2, axis=0), 2, axis=1))
            for img in (s.image, thick):
                a = pipeline.analyze_glyph(img)
                digest.update(np.packbits(a.skeleton).tobytes())
                digest.update(structural.group_name(a.group).encode())
                digest.update(a.raw_features.astype("<i8").tobytes())
        assert (pipeline.TRAIN_ANALYSIS_VERSION, digest.hexdigest()) == (
            2,
            "8f4b20d39043fea5908c8edeb83eb2513228fd459c1005b489234a487d0cd813",
        )


class TestRecognize:
    def test_unmodeled_group_is_rejected(self, templates):
        img = synth.render(templates[0], synth.JitterSpec(0, 0))
        pred = pipeline.recognize(img, GroupModelSet())
        assert pred.label == REJECTED
        assert pred.confidence == 0.0
        assert pred.group == templates[0].truth

    def test_trained_prediction(self, trained, templates):
        _, modelset, _, _ = trained
        img = synth.render(templates[0], synth.JitterSpec(0, 0))
        pred = pipeline.recognize(img, modelset)
        assert pred.label == templates[0].class_label
        assert 0.0 < pred.confidence <= 1.0


class TestCorpusChecks:
    def test_single_class_group_rejected(self, templates):
        only_one = [s for s in tiny_corpus(templates) if s.class_label == "cha"]
        with pytest.raises(InsufficientDataError) as exc:
            pipeline.train_all(only_one)
        assert exc.value.group == "full_end"

    def test_single_sample_class_rejected(self, templates):
        samples = tiny_corpus(templates, per_class=2)
        pruned = [s for s in samples if not (s.class_label == "kha" and s.path.endswith("0001.pbm"))]
        with pytest.raises(InsufficientDataError):
            pipeline.train_all(pruned)


class TestTrainAll:
    def test_one_model_per_group(self, trained):
        samples, modelset, reports, _ = trained
        groups = {s.group for s in samples}
        assert set(modelset.models) == groups == set(reports)
        for key, (net, labels) in modelset.models.items():
            assert net.n_out == len(labels) == 3
            assert labels == sorted(labels)

    def test_training_is_deterministic(self, templates):
        samples = tiny_corpus(templates, per_class=4)
        a, _, _ = pipeline.train_all(samples)
        b, _, _ = pipeline.train_all(samples)
        for key in a.models:
            assert np.array_equal(
                nn.flatten_params(a.models[key][0]), nn.flatten_params(b.models[key][0])
            )

    def test_routing_log_shape(self, templates):
        # this corpus misroutes one glyph into each of none_none and
        # partial_none, groups it does not contain, so both are skipped
        samples = tiny_corpus(templates, amplitude=2, seed=18)
        lines = []
        _, reports, routing_log = pipeline.train_all(samples, say=lines.append)
        groups = {s.path: s.group for s in samples if s.split == "train"}
        assert [(groups[path], manifest, detected) for path, manifest, detected in routing_log] == [
            ("full_end", "full_end", "none_none"),
            ("full_none", "full_none", "partial_none"),
        ]
        assert lines[1:] == [
            "skipped detected group none_none: 1 glyph(s) of a single class",
            "skipped detected group partial_none: 1 glyph(s) of a single class",
        ]
        assert sorted(reports) == ["full_end", "full_mid", "full_none", "partial_end"]


class TestEvaluate:
    def test_report_recounts_from_records(self, trained):
        samples, modelset, _, _ = trained
        report = pipeline.evaluate(samples, modelset)
        # independent recount straight from the per-sample records
        for row in report.rows:
            recs = [r for r in report.records if r.manifest_group == row.group]
            test = [r for r in recs if r.split == "test"]
            train = [r for r in recs if r.split == "train"]
            assert row.n_test == len(test) and row.n_train == len(train)
            if test:
                expect = 100.0 * sum(r.predicted_label == r.true_label for r in test) / len(test)
                assert row.test_accuracy == pytest.approx(expect)
        test = [r for r in report.records if r.split == "test"]
        expect = 100.0 * sum(r.predicted_label == r.true_label for r in test) / len(test)
        assert report.overall_accuracy == pytest.approx(expect)

    def test_zero_jitter_corpus_is_fully_learned(self, trained):
        samples, modelset, _, _ = trained
        report = pipeline.evaluate(samples, modelset)
        assert report.overall_accuracy == pytest.approx(100.0)

    def test_empty_test_split_renders_na(self, templates):
        samples = [s for s in tiny_corpus(templates, per_class=5)]  # indices 0..4: all train
        assert all(s.split == "train" for s in samples)
        modelset, _, _ = pipeline.train_all(samples)
        report = pipeline.evaluate(samples, modelset)
        assert math.isnan(report.overall_accuracy)
        text = pipeline.render_report(report)
        assert "n/a" in text
        assert text.splitlines()[-1] == "overall test accuracy: n/a"

    def test_render_report_layout(self, trained):
        samples, modelset, _, _ = trained
        report = pipeline.evaluate(samples, modelset)
        lines = pipeline.render_report(report).splitlines()
        assert lines[0].split() == ["group", "test_acc", "train_acc", "n_test", "n_train"]
        assert lines[-1].startswith("overall test accuracy:")
        assert len(lines) == 2 + len(report.rows)

    def test_csv_outputs(self, trained):
        samples, modelset, _, _ = trained
        report = pipeline.evaluate(samples, modelset)
        rcsv = pipeline.report_csv(report)
        assert rcsv.startswith("group,test_acc,train_acc,n_test,n_train\n")
        assert len(rcsv.strip().splitlines()) == 1 + len(report.rows)
        pcsv = pipeline.predictions_csv(report)
        assert len(pcsv.strip().splitlines()) == 1 + len(report.records)


class TestModelSetPersistence:
    def test_round_trip(self, trained, tmp_path):
        _, modelset, _, _ = trained
        d = str(tmp_path / "models")
        pipeline.save_modelset(d, modelset)
        assert os.path.exists(os.path.join(d, "modelset.txt"))
        back = pipeline.load_modelset(d)
        assert set(back.models) == set(modelset.models)
        for key in modelset.models:
            neta, labelsa = modelset.models[key]
            netb, labelsb = back.models[key]
            assert labelsa == labelsb
            assert np.array_equal(nn.flatten_params(neta), nn.flatten_params(netb))
            assert os.path.exists(os.path.join(d, "%s.mlp" % key))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pipeline.load_modelset(str(tmp_path))

    def test_bad_magic(self, tmp_path):
        (tmp_path / "modelset.txt").write_text("WRONG v9\n")
        with pytest.raises(MalformedModelSetError):
            pipeline.load_modelset(str(tmp_path))

    def test_bad_line(self, tmp_path):
        (tmp_path / "modelset.txt").write_text("DEVOC-MODELSET v1\nfull_end\n")
        with pytest.raises(MalformedModelSetError):
            pipeline.load_modelset(str(tmp_path))


@pytest.fixture(scope="module")
def recorded(templates):
    """A model set plus the stage-one record of its train glyphs."""
    samples = tiny_corpus(templates, per_class=4, amplitude=2)
    analysed = {}
    modelset, _, _ = pipeline.train_all(samples, Config(), analysed)
    return samples, modelset, analysed


class TestTrainAnalysisRecord:
    def test_holds_each_train_glyphs_analysis(self, recorded):
        samples, _, analysed = recorded
        train = [s for s in samples if s.split == "train"]
        assert list(analysed) == [s.path for s in train]
        for s in train:
            a = pipeline.analyze_glyph(s.image)
            rec = analysed[s.path]
            assert rec.group == a.group and np.array_equal(rec.raw_features, a.raw_features)

    def test_round_trip_is_exact(self, recorded, tmp_path):
        _, _, analysed = recorded
        pipeline.save_train_analysis(str(tmp_path), analysed, Config())
        back = pipeline.load_train_analysis(str(tmp_path), Config())
        assert list(back) == list(analysed)
        for path, rec in analysed.items():
            got = back[path]
            assert (got.digest, got.group) == (rec.digest, rec.group)
            assert got.raw_features.dtype == rec.raw_features.dtype
            assert np.array_equal(got.raw_features, rec.raw_features)

    def test_evaluate_reuses_exactly_the_matching_glyphs(self, recorded):
        samples, modelset, analysed = recorded
        fresh = pipeline.evaluate(samples, modelset)
        assert fresh.reused == 0
        reused = pipeline.evaluate(samples, modelset, Config(), analysed)
        assert reused.reused == len(analysed) and reused.records == fresh.records
        # a train glyph whose image changed after training is analysed again
        i = next(i for i, s in enumerate(samples) if s.split == "train")
        moved = list(samples)
        moved[i] = dataclasses.replace(samples[i], image=np.roll(samples[i].image, 1, axis=1))
        assert pipeline.evaluate(moved, modelset, Config(), analysed).reused == len(analysed) - 1

    @pytest.mark.parametrize("cfg", [Config(step_tol=3), Config(full_span=0.8), Config(max_spur=2)])
    def test_other_stage_one_settings_ignore_it(self, recorded, tmp_path, cfg):
        pipeline.save_train_analysis(str(tmp_path), recorded[2], Config())
        assert pipeline.load_train_analysis(str(tmp_path), cfg) == {}

    def test_stage_two_settings_keep_it(self, recorded, tmp_path):
        pipeline.save_train_analysis(str(tmp_path), recorded[2], Config())
        cfg = Config(feature_cap=2.0, n_hidden=7, seed=3)
        assert len(pipeline.load_train_analysis(str(tmp_path), cfg)) == len(recorded[2])

    def test_other_format_version_is_ignored(self, recorded, tmp_path):
        pipeline.save_train_analysis(str(tmp_path), recorded[2], Config())
        path = tmp_path / pipeline.TRAIN_ANALYSIS_NAME
        text = path.read_text()
        current = " v%d " % pipeline.TRAIN_ANALYSIS_VERSION
        assert current in text.split("\n")[0]
        # v1 is what the code before the frame-scale shrink wrote
        for version in (pipeline.TRAIN_ANALYSIS_VERSION - 1, pipeline.TRAIN_ANALYSIS_VERSION + 1, 1):
            path.write_text(text.replace(current, " v%d " % version, 1))
            assert pipeline.load_train_analysis(str(tmp_path), Config()) == {}

    def test_missing_is_empty(self, tmp_path):
        assert pipeline.load_train_analysis(str(tmp_path), Config()) == {}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: [""], r"\.csv: bad header"),
            (lambda lines: ["WRONG v1"] + lines, r"\.csv: bad header"),
            (lambda lines: [line.replace(",full_", ",fill_") for line in lines], r"\.csv:\d+: "),
            (lambda lines: lines[:1] + [lines[1].replace(",", ",,", 3)] + lines[2:], "bad column line"),
            (lambda lines: lines[:-2] + [lines[-2] + "\r", ""], r"\.csv:\d+: bad row"),
            (lambda lines: lines[:4] + [lines[4].replace(",", ";", 1)] + lines[5:], r"\.csv:5: bad row"),
            (lambda lines: lines[:-1], r"\.csv: bad column line or no final newline"),
            (lambda lines: lines[:1] + ["", ""], r"\.csv: bad column line or no final newline"),
        ],
        ids=[
            "empty", "bad-magic", "bad-group", "bad-column-line", "cr-in-row",
            "row-5", "last-row-unended", "no-column-line",
        ],
    )
    def test_unparsable_is_malformed(self, recorded, tmp_path, edit, message):
        # edit gets the file's lines split at LF; the last is "" after the final newline
        pipeline.save_train_analysis(str(tmp_path), recorded[2], Config())
        path = tmp_path / pipeline.TRAIN_ANALYSIS_NAME
        path.write_text("\n".join(edit(path.read_text().split("\n"))), newline="")
        with pytest.raises(MalformedModelSetError, match=message):
            pipeline.load_train_analysis(str(tmp_path), Config())

    def test_not_utf8_is_malformed(self, tmp_path):
        (tmp_path / pipeline.TRAIN_ANALYSIS_NAME).write_bytes(b"DEVOC-TRAIN-ANALYSIS \xff\n")
        with pytest.raises(MalformedModelSetError, match="not UTF-8"):
            pipeline.load_train_analysis(str(tmp_path), Config())


class TestAnalyzeCorpus:
    @pytest.mark.parametrize("where", ["disk", "memory"])
    def test_records_do_not_depend_on_the_worker_count(self, templates, tmp_path, monkeypatch, where):
        samples = synth.generate_corpus(templates, 12, 2, 5)  # 144 glyphs, 3 batches
        if where == "disk":
            synth.write_corpus(samples, str(tmp_path))
            samples = pipeline.load_corpus(str(tmp_path))
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(pipeline, "corpus_workers", lambda n: workers)
            digests, groups, raw, used = pipeline.analyze_corpus(samples, Config())
            assert used == workers
            assert raw.shape == (len(samples), features.N_FEATURES) and raw.dtype == np.int64
            runs.append((digests, groups, raw.tolist()))
        serial, pooled = runs
        assert serial == pooled
        assert multiprocessing.active_children() == []
        analyses = [pipeline.analyze_glyph(s.image) for s in samples]
        assert serial[0] == [pipeline._digest(s.image) for s in samples]
        assert serial[1] == [structural.group_name(a.group) for a in analyses]
        assert serial[2] == [a.raw_features.tolist() for a in analyses]

    @pytest.mark.parametrize(
        "cpus, n_samples, workers",
        [(8, 0, 1), (8, 256, 1), (8, 449, 2), (8, 64 * 40, 8), (1, 64 * 40, 1), (3, 64 * 12, 3)],
    )
    def test_default_is_one_worker_per_cpu_and_per_4_batches(self, monkeypatch, tmp_path, cpus, n_samples, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(pipeline, "CPU_MAX", str(tmp_path / "no-cpu.max"))  # no quota
        assert pipeline.corpus_workers(n_samples) == workers

    @pytest.mark.parametrize(
        "cpu_max, workers", [("max 100000", 8), ("150000 100000", 2), ("50000 100000", 1), (None, 8)]
    )
    def test_a_cgroup_cpu_quota_caps_the_workers(self, monkeypatch, tmp_path, cpu_max, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max + "\n")
        monkeypatch.setattr(pipeline, "CPU_MAX", str(path))
        assert pipeline.corpus_workers(64 * 40) == workers

    def test_no_worker_outlives_train_all(self, templates, monkeypatch):
        monkeypatch.setattr(pipeline, "corpus_workers", lambda n: 2)
        samples = tiny_corpus(templates, per_class=20, amplitude=2)  # 168 train glyphs, 3 batches
        pipeline.train_all(samples)
        assert multiprocessing.active_children() == []
        train = [i for i, s in enumerate(samples) if s.split == "train"]
        blanked = list(samples)
        i = train[2 * pipeline.BATCH]
        blanked[i] = dataclasses.replace(samples[i], image=np.zeros((40, 40), dtype=bool))
        with pytest.raises(raster.EmptyImageError, match=samples[i].path) as info:
            pipeline.train_all(blanked)
        assert info.traceback and multiprocessing.active_children() == []


class TestLoadCorpus:
    def test_from_disk(self, templates, tmp_path):
        root = str(tmp_path / "corpus")
        synth.write_corpus(synth.generate_corpus(templates[:2], 3, 0, 0), root)
        samples = pipeline.load_corpus(root)
        assert len(samples) == 6
        for s in samples:
            assert s.image.shape == (100, 100)
            assert s.split in ("train", "test")

    def test_file_backed_corpus_trains_and_evaluates_like_the_in_memory_one(self, templates, tmp_path):
        samples = synth.generate_corpus(templates, 10, 2, 7)
        root = str(tmp_path / "corpus")
        synth.write_corpus(samples, root)
        outputs = []
        for name, corpus in (("disk", pipeline.load_corpus(root)), ("memory", pipeline.corpus_from_samples(samples))):
            analysed = {}
            modelset, _, routing_log = pipeline.train_all(corpus, Config(), analysed)
            models = str(tmp_path / name)
            pipeline.save_modelset(models, modelset)
            pipeline.save_train_analysis(models, analysed, Config())
            report = pipeline.evaluate(corpus, modelset, Config(), analysed)
            files = {f: open(os.path.join(models, f), "rb").read() for f in sorted(os.listdir(models))}
            outputs.append((files, routing_log, pipeline.predictions_csv(report), pipeline.report_csv(report), report.reused))
        assert outputs[0] == outputs[1]
        assert outputs[0][4] == sum(s.split == "train" for s in samples)

    def test_images_are_read_on_access_only(self, templates, tmp_path):
        root = str(tmp_path / "corpus")
        synth.write_corpus(synth.generate_corpus(templates[:2], 3, 0, 0), root)
        os.remove(os.path.join(root, synth.read_manifest(root)[0].path))
        samples = pipeline.load_corpus(root)
        assert len(samples) == 6
        with pytest.raises(raster.RasterError, match="cannot read"):
            samples[0].image

    def test_naming_prefixes_a_path_the_error_does_not_name(self, tmp_path):
        missing = str(tmp_path / "gone.pbm")
        with pytest.raises(raster.RasterError) as info:
            with pipeline.naming(missing):
                raster.load_image(missing)
        assert str(info.value).count(missing) == 1
        with pytest.raises(raster.DimensionMismatchError, match="^x.pbm: short$"):
            with pipeline.naming("x.pbm"):
                raise raster.DimensionMismatchError("short")
