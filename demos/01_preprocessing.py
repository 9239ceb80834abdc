"""Walk one glyph through the raster pipeline stage by stage.

Renders a synthetic character, then shows what crop-to-ink, the shrink to
the frame's scale, thicken, thin, prune and the final 100x100 normalization
each do to it. Run from the repo
root:

    python3 demos/01_preprocessing.py
"""

import numpy as np

from devoc import raster, synth


def show(title, img, scale=4):
    """Coarse ASCII view: collapse scale x scale blocks to one char."""
    h, w = img.shape
    rows = []
    for r in range(0, h - h % scale, scale):
        row = ""
        for c in range(0, w - w % scale, scale):
            row += "#" if img[r : r + scale, c : c + scale].any() else "."
        rows.append(row)
    print("--- %s  (%dx%d, %d fg px)" % (title, h, w, int(img.sum())))
    print("\n".join(rows))
    print()


def main():
    tpl = synth.default_templates()[1]  # "kha": headline + end spine + body
    glyph = synth.render(tpl, synth.JitterSpec(amplitude=2, seed=7))
    show("rendered glyph (already thin)", glyph)

    # pretend it came from a scanner at twice the size: pad it into a larger
    # page and fatten it
    page = np.zeros((320, 320), dtype=bool)
    page[60:260, 40:240] = np.repeat(np.repeat(glyph, 2, axis=0), 2, axis=1)
    page = raster.thicken(raster.thicken(page))
    show("simulated scan (twice the size, thick, off-center)", page, scale=8)

    cropped = raster.crop_to_ink(page)
    shrunk = raster.shrink_to_frame(cropped)  # block-OR by long side / 100, rounded
    print("cropped %dx%d, shrunk to the frame's scale: %dx%d\n" % (cropped.shape + shrunk.shape))
    thin = raster.thin_to_convergence(shrunk)
    show("thinned back to one pixel wide", thin)
    print("one pixel wide?", not (thin[:-1, :-1] & thin[1:, :-1] & thin[:-1, 1:] & thin[1:, 1:]).any())

    pruned = raster.prune(thin, max_spur=3)
    print("prune removed %d spur pixel(s)" % int(thin.sum() - pruned.sum()))

    norm = raster.normalize(pruned)
    show("normalized to 100x100", norm)
    rows, cols = np.flatnonzero(norm.any(axis=1)), np.flatnonzero(norm.any(axis=0))
    print("ink rows %d..%d, columns %d..%d of 0..%d" % (rows[0], rows[-1], cols[0], cols[-1], raster.NORM_SIZE - 1))


if __name__ == "__main__":
    main()
