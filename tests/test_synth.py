import dataclasses
import zlib

import numpy as np
import pytest

from devoc import raster, structural, synth
from devoc.synth import JitterSpec, _bresenham, mix_seed

from conftest import has_full_2x2_block


class TestMixSeed:
    def test_frozen_value(self):
        # crc32 of the joined text; pinned so corpora stay reproducible
        assert mix_seed(0, "cha", 3) == zlib.crc32(b"0|cha|3")
        assert mix_seed("a", "b") == zlib.crc32(b"a|b")

    def test_order_sensitive(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)

    def test_stable_across_calls(self):
        assert mix_seed(7, "x") == mix_seed(7, "x")


class TestBresenham:
    def test_endpoints_inclusive(self):
        pts = _bresenham(3, 4, 9, 17)
        assert pts[0] == (3, 4) and pts[-1] == (9, 17)

    def test_horizontal_vertical_diagonal(self):
        assert _bresenham(2, 1, 2, 5) == [(2, c) for c in range(1, 6)]
        assert _bresenham(1, 3, 6, 3) == [(r, 3) for r in range(1, 7)]
        assert _bresenham(0, 0, 4, 4) == [(i, i) for i in range(5)]

    def test_single_point(self):
        assert _bresenham(5, 5, 5, 5) == [(5, 5)]

    def test_reverse_directions(self):
        assert _bresenham(2, 5, 2, 1) == [(2, c) for c in range(5, 0, -1)]
        assert _bresenham(6, 3, 1, 3) == [(r, 3) for r in range(6, 0, -1)]

    def test_steps_are_8_connected(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r0, c0, r1, c1 = rng.integers(0, 100, 4)
            pts = _bresenham(int(r0), int(c0), int(r1), int(c1))
            for (ra, ca), (rb, cb) in zip(pts, pts[1:]):
                assert max(abs(rb - ra), abs(cb - ca)) == 1


class TestTemplates:
    def test_twelve_templates_three_per_group(self, templates):
        assert len(templates) == 12
        groups = {}
        for t in templates:
            groups.setdefault(structural.group_name(t.truth), []).append(t.id)
        assert set(groups) == {"full_end", "full_mid", "full_none", "partial_end"}
        assert all(len(v) == 3 for v in groups.values())

    def test_unique_ids(self, templates):
        ids = [t.id for t in templates]
        assert len(set(ids)) == len(ids)

    def test_strokes_in_unit_box(self, templates):
        for t in templates:
            for poly in t.strokes:
                for x, y in poly:
                    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


class TestRender:
    def test_deterministic(self, templates):
        a = synth.render(templates[0], JitterSpec(2, 77))
        b = synth.render(templates[0], JitterSpec(2, 77))
        assert np.array_equal(a, b)

    def test_seed_changes_jittered_output(self, templates):
        a = synth.render(templates[0], JitterSpec(2, 1))
        b = synth.render(templates[0], JitterSpec(2, 2))
        assert not np.array_equal(a, b)

    def test_zero_jitter_ignores_seed(self, templates):
        a = synth.render(templates[0], JitterSpec(0, 1))
        b = synth.render(templates[0], JitterSpec(0, 2))
        assert np.array_equal(a, b)

    def test_output_is_thin_100x100(self, templates):
        img = synth.render(templates[3], JitterSpec(3, 5))
        assert img.shape == (100, 100)
        assert img.any()
        assert not has_full_2x2_block(img)

    def test_zero_jitter_templates_hit_their_groups(self, templates):
        from devoc import pipeline

        for t in templates:
            img = synth.render(t, JitterSpec(0, 0))
            analysis = pipeline.analyze_glyph(img)
            assert analysis.group == t.truth, t.id


class TestCorpus:
    def test_split_pattern(self):
        assert [synth.split_of(i) for i in range(10)] == ["train"] * 7 + ["test"] * 3
        assert synth.split_of(17) == "test" and synth.split_of(23) == "train"

    def test_generate_counts_and_metadata(self, templates):
        samples = synth.generate_corpus(templates[:2], per_class=10, amplitude=1, seed=5)
        assert len(samples) == 20
        assert sum(s.split == "train" for s in samples) == 14
        for s in samples:
            assert s.group in ("full_end", "full_mid", "full_none", "partial_end")
            assert s.image.shape == (100, 100)

    def test_generate_is_a_pure_function(self, templates):
        a = synth.generate_corpus(templates[:1], 5, amplitude=2, seed=3)
        b = synth.generate_corpus(templates[:1], 5, amplitude=2, seed=3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)

    def test_per_class_must_be_positive(self, templates):
        with pytest.raises(ValueError):
            synth.generate_corpus(templates, 0)

    @pytest.mark.parametrize("amplitude", [-1, 4])
    def test_amplitude_must_be_in_0_to_3(self, templates, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            synth.generate_corpus(templates, 1, amplitude)

    def test_write_read_round_trip(self, templates, tmp_path):
        root = str(tmp_path / "corpus")
        samples = synth.generate_corpus(templates[:3], per_class=4, amplitude=1, seed=1)
        synth.write_corpus(samples, root)
        entries = synth.read_manifest(root)
        assert len(entries) == len(samples)
        for e, s in zip(entries, samples):
            assert e.class_label == s.class_label
            assert e.group == s.group and e.split == s.split
            img = raster.load_image(str(tmp_path / "corpus" / e.path))
            assert np.array_equal(img, s.image)

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb", "a\u2028b"])
    def test_write_corpus_refuses_a_field_the_manifest_cannot_hold(self, templates, tmp_path, label):
        tpl = dataclasses.replace(templates[0], class_label=label)
        root = tmp_path / "corpus"
        with pytest.raises(ValueError, match="holds a comma, a double quote or a line break"):
            synth.write_corpus(synth.generate_corpus([tpl] + list(templates[1:3]), 2), str(root))
        assert not root.exists()

    def test_read_manifest_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            synth.read_manifest(str(tmp_path))

    def test_read_manifest_missing_columns(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("path,split\nx,train\n")
        with pytest.raises(ValueError):
            synth.read_manifest(str(tmp_path))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b.pbm,cha,full_end", "empty or missing field"),
            ("b.pbm,,full_end,test", "empty or missing field"),
            ("b.pbm,cha,full_end,bogus", "split 'bogus' is not train or test"),
            ("x" * (128 * 1024 + 1) + ",cha,full_end,train", "field larger than field limit"),
            ('b.pbm,"a,b",full_end,test', "field 'a,b' holds a comma, a double quote or a line break"),
            ('b.pbm,a"b,full_end,test', "field 'a\"b' holds a comma, a double quote or a line break"),
        ],
        ids=["missing-field", "empty-field", "bad-split", "field-over-128k", "quoted-comma", "quote"],
    )
    def test_read_manifest_bad_row_names_its_line(self, tmp_path, row, message):
        (tmp_path / "manifest.csv").write_text("path,class_label,group,split\na.pbm,cha,full_end,train\n%s\n" % row)
        with pytest.raises(ValueError, match="manifest.csv:3: " + message):
            synth.read_manifest(str(tmp_path))

    def test_read_manifest_not_utf8(self, tmp_path):
        (tmp_path / "manifest.csv").write_bytes(b"path,class_label,group,split\n\xff.pbm,cha,full_end,train\n")
        with pytest.raises(ValueError, match="manifest.csv is not UTF-8 text"):
            synth.read_manifest(str(tmp_path))
