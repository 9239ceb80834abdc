"""Zoning features: where the intersections and open ends fall.

Draws the 4x4 tile grid over a skeleton, marks each feature point, and
prints the 32-value count vector plus its scaled network input form.

    python3 demos/03_features.py
"""

import numpy as np

from devoc import features, pipeline, synth
from devoc.config import Config


def main():
    tpl = synth.default_templates()[4]  # "ka" has a busy body
    img = synth.render(tpl, synth.JitterSpec(amplitude=1, seed=3))
    skel = pipeline.preprocess_glyph(img)

    # the rule extract_features counts by: one 8-neighbor is an open end,
    # three or more an intersection
    padded = np.pad(skel, 1)
    points = []
    for r, c in np.argwhere(skel):
        n = padded[r : r + 3, c : c + 3].sum() - 1  # the 3x3 window less the pixel itself
        if n == 1 or n >= 3:
            points.append((r, c, "open_end" if n == 1 else "intersection"))
    print("feature points on %r:" % tpl.id)
    for r, c, kind in sorted(points):
        tile = (r // features.TILE) * features.GRID + c // features.TILE
        print("  %-13s at %-9s tile %2d" % (kind, (int(r), int(c)), tile))

    vec = features.extract_features(skel)
    print()
    print("raw 32-vector, tiles row-major, (intersections, ends) per tile:")
    for tr in range(4):
        row = []
        for tc in range(4):
            t = tr * 4 + tc
            row.append("(%d,%d)" % (vec[2 * t], vec[2 * t + 1]))
        print("  " + "  ".join("%-7s" % v for v in row))

    scaled = features.scale_features(vec, Config().feature_cap)
    print()
    print("scaled input (counts / 5, clamped to [0,1]):")
    print(np.array2string(scaled, precision=2, max_line_width=100))


if __name__ == "__main__":
    main()
