import xml.etree.ElementTree as ET

import numpy as np

from recurrisk.svgplot import PATH_BLOCK, Series, _data_range, _fmt, _path_data, render_plot

SVG = "{http://www.w3.org/2000/svg}"


def test_special_characters_survive_the_round_trip():
    series = [Series("a&b", [0, 1], [0, 1]), Series('<"c">', [0, 1, 2], [1, 0, 1], step=True),
              Series("it's", [0, 2], [0.5, 0.5], dashed=True)]
    text = render_plot(series, "p < 0.05", "x & y", "<risk>", annotations=["C > 0.7 & AUC"])
    root = ET.fromstring(text)                       # raises if not well-formed
    paths = root.findall(f"{SVG}path")
    assert len(paths) == len(series)
    assert [p.get("data-series") for p in paths] == [s.label for s in series]
    texts = [t.text for t in root.iter(f"{SVG}text")]
    for label in ("p < 0.05", "x & y", "<risk>", "C > 0.7 & AUC", *(s.label for s in series)):
        assert label in texts


def test_data_range_pads_a_constant_series():
    x_min, x_max, y_min, y_max = _data_range([Series("flat", [2.0, 2.0], [5.0, 5.0])])
    # a zero span widens to 1 before the 2% low and 5% high padding
    assert (x_min, x_max) == (2.0 - 0.02, 3.0 + 0.05)
    assert (y_min, y_max) == (5.0 - 0.02, 6.0 + 0.05)


def path_data_oracle(s, sx, sy):
    """The former path text: every (x, y) vertex first, then one join."""
    points, prev_y = [], None
    for x, y in zip(s.xs, s.ys):
        if s.step and prev_y is not None:
            points.append((sx(x), prev_y))
        py = sy(y)
        points.append((sx(x), py))
        prev_y = py
    return " ".join(f"{'M' if i == 0 else 'L'}{_fmt(px)},{_fmt(py)}"
                    for i, (px, py) in enumerate(points))


def test_a_path_joined_in_blocks_equals_the_one_join():
    # step series have two vertices per point, so these lengths end a block
    # early, exactly and late, for both kinds of series
    rng = np.random.default_rng(8)
    for n in (0, 1, 2, PATH_BLOCK // 2, PATH_BLOCK - 1, PATH_BLOCK, PATH_BLOCK + 1,
              3 * PATH_BLOCK + 7):
        xs, ys = np.sort(rng.random(n)).tolist(), rng.random(n).tolist()
        for step in (False, True):
            s = Series("s", xs, ys, step=step)
            want = path_data_oracle(s, lambda x: 70 + 550 * x, lambda y: 425 - 385 * y)
            assert _path_data(s, lambda x: 70 + 550 * x, lambda y: 425 - 385 * y) == want
