import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np

from recurrisk.pipeline import _write_text
from recurrisk.svgplot import Series, _data_range, _fmt, _path_data, render_plot

SVG = "{http://www.w3.org/2000/svg}"


def test_special_characters_survive_the_round_trip():
    series = [Series("a&b", [0, 1], [0, 1]), Series('<"c">', [0, 1, 2], [1, 0, 1], step=True),
              Series("it's", [0, 2], [0.5, 0.5], dashed=True)]
    text = "".join(render_plot(series, "p < 0.05", "x & y", "<risk>",
                               annotations=["C > 0.7 & AUC"]))
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


def test_a_streamed_path_equals_the_one_join():
    # a step series has two vertices per point after the first; 3,079 is
    # about the knot count of a 5,000-subject Kaplan-Meier curve
    rng = np.random.default_rng(8)
    for n in (0, 1, 2, 1000, 3079):
        xs, ys = np.sort(rng.random(n)), rng.random(n)
        for step in (False, True):
            for kind in (np.asarray, np.ndarray.tolist):
                s = Series("s", kind(xs), kind(ys), step=step)
                want = path_data_oracle(s, lambda x: 70 + 550 * x, lambda y: 425 - 385 * y)
                got = "".join(_path_data(s, lambda x: 70 + 550 * x, lambda y: 425 - 385 * y))
                assert got == want, (n, step, kind)


def test_an_array_series_draws_the_same_plot_as_its_list():
    rng = np.random.default_rng(3)
    xs, ys = np.r_[0.0, np.sort(rng.random(50))], np.r_[1.0, rng.random(50)]
    line = Series("b", [0.0, 1.0], [0.2, 0.4])
    as_lists = [Series("a", xs.tolist(), ys.tolist(), step=True), line]
    as_arrays = [Series("a", xs, ys, step=True), line]
    assert _data_range(as_arrays) == _data_range(as_lists)
    assert "".join(render_plot(as_arrays, "t", "x", "y")) == \
        "".join(render_plot(as_lists, "t", "x", "y"))


def test_a_long_step_plot_is_written_without_its_whole_text(tmp_path):
    rng = np.random.default_rng(11)
    n = 20_000
    series = [Series("km", np.r_[0.0, np.cumsum(rng.random(n))],
                     np.r_[1.0, np.sort(rng.random(n))[::-1]], step=True)]
    path = tmp_path / "km.svg"
    tracemalloc.start()
    try:
        _write_text(path, render_plot(series, "t", "x", "y", y_range=(0.0, 1.05)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # a text built first, then encoded, peaks at several times the file's size
    assert peak < size / 5, (peak, size)
    root = ET.parse(path).getroot()
    assert len(root.find(f"{SVG}path").get("d").split(" L")) == 2 * n + 1
