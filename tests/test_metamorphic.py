"""Metamorphic checks of stage one: the same glyph, drawn differently, gets
the same analysis.

Exact relations only, over corpus glyphs at 1 px and at a thick pen (2x
pixel replication plus one 3x3 dilation, numpy alone), plus what the padded
and replicated glyphs' analysis hands to thinning, and k-fold pixel
replication of the 1-px glyphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devoc import pipeline, raster, synth

# ten jittered glyphs per class, each rendered when drawn
GLYPHS = synth.plan_corpus(synth.default_templates(), 10, amplitude=2, seed=0)

glyphs = st.tuples(st.integers(0, len(GLYPHS) - 1), st.booleans())


def replicate(img, k):
    return np.repeat(np.repeat(img, k, axis=0), k, axis=1)


def draw(index, thick):
    img = GLYPHS[index].image
    if thick:
        img = raster.thicken(replicate(img, 2))
    return img


def outcome(img):
    """Every field of analyze_glyph's result, in a form == compares."""
    a = pipeline.analyze_glyph(img)
    return a.skeleton.tobytes(), a.shirorekha, a.spine, a.group, a.raw_features.tolist()


borders = st.tuples(*[st.integers(0, 60)] * 4)  # top, bottom, left, right


def pad(img, margins):
    top, bottom, left, right = margins
    return np.pad(img, ((top, bottom), (left, right)))


@settings(max_examples=480, deadline=None)
@given(glyph=glyphs, margins=borders)
def test_zero_padding_keeps_the_analysis(glyph, margins):
    img = draw(*glyph)
    assert outcome(pad(img, margins)) == outcome(img)


@settings(max_examples=120, deadline=None)
@given(glyph=glyphs, k=st.integers(1, 20), margins=borders)
def test_thinning_gets_canvases_inked_on_every_edge(glyph, k, margins):
    # each thinning subiteration after the first pass scans the whole canvas,
    # which costs little only because analyze_glyph never thins a blank
    # margin, nor a canvas 1.5 NORM_SIZE or more on its long side however
    # large the glyph: stage one shrinks it to the frame's scale first
    img = pad(replicate(draw(*glyph), k), margins)  # drawing thins a 100x100 canvas of its own
    canvases = []
    thin = raster.thin_to_convergence

    def recording(canvas):
        canvases.append(canvas)
        return thin(canvas)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raster, "thin_to_convergence", recording)
        pipeline.analyze_glyph(img)
    assert len(canvases) >= 2
    for c in canvases:
        assert c[0].any() and c[-1].any() and c[:, 0].any() and c[:, -1].any()
        assert max(c.shape) < 1.5 * raster.NORM_SIZE


@settings(max_examples=240, deadline=None)
@given(glyph=glyphs, margins=borders)
def test_a_pbm_round_trip_keeps_the_analysis(tmp_path_factory, glyph, margins):
    # padded, so that the file's width and height are of either parity
    img = pad(draw(*glyph), margins)
    path = str(tmp_path_factory.getbasetemp() / "round_trip.pbm")
    raster.save_pbm(path, img)
    assert outcome(raster.load_image(path)) == outcome(img)


@pytest.mark.parametrize("k", [2, 3, 20])
def test_pixel_replication_keeps_the_analysis(k):
    # preprocess_glyph block-ORs a glyph down by its long side over
    # NORM_SIZE, rounded half up, so a k-fold replica analyses as the glyph
    # does when k times the long side rounds back to k: at k = 2 and 3 every
    # corpus glyph (long side 96-100), at k = 20 (a 2,000x2,000 canvas) those
    # of long side 98 or more
    half, kept = raster.NORM_SIZE // 2, 0
    for s in GLYPHS:
        img = s.image
        if (k * max(raster.crop_to_ink(img).shape) + half) // raster.NORM_SIZE != k:
            continue
        kept += 1
        assert outcome(replicate(img, k)) == outcome(img)
    assert kept >= (len(GLYPHS) if k < 20 else 0.9 * len(GLYPHS))
