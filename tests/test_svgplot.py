import xml.etree.ElementTree as ET

from recurrisk.svgplot import Series, _data_range, render_plot

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
