"""Hand-rolled SVG emission for the report plots.

Matplotlib output embeds hashes and timestamps; these plots are plain text
with a fixed canvas and fixed decimal formatting, so identical inputs give
byte-identical files that diff cleanly in CI.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from html import escape

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 40.0, 55.0
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#7f7f7f")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


@dataclass
class Series:
    label: str
    xs: Sequence[float]           # a list or a 1-d array, as long as ys
    ys: Sequence[float]
    color: str = PALETTE[0]
    step: bool = False            # hold each y until the next x
    dashed: bool = False


def _data_range(series_list, lo_pad=0.02, hi_pad=0.05):
    x_min, x_max = min(min(s.xs) for s in series_list), max(max(s.xs) for s in series_list)
    y_min, y_max = min(min(s.ys) for s in series_list), max(max(s.ys) for s in series_list)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    x_span, y_span = x_max - x_min, y_max - y_min
    return (x_min - lo_pad * x_span, x_max + hi_pad * x_span,
            y_min - lo_pad * y_span, y_max + hi_pad * y_span)


def _path_data(s: Series, sx, sy):
    """Yield the path data "Mx,y Lx,y ..." of a series in canvas coordinates,
    one vertex at a time, a step series holding each y until the next x."""
    lead, prev_y = "M", None
    for x, y in zip(s.xs, s.ys):
        px = _fmt(sx(x))
        if s.step and prev_y is not None:
            yield f"{lead}{px},{prev_y}"
        prev_y = _fmt(sy(y))
        yield f"{lead}{px},{prev_y}"
        lead = " L"


def render_plot(series_list: list[Series], title: str, xlabel: str, ylabel: str,
                annotations: list[str] = (), y_range=None, x_range=None):
    """Yield the text of a standalone SVG document of line/step series, one
    piece per element line, each ending in a newline; a path comes as its
    opening, one piece per vertex, then its closing."""
    x_min, x_max, y_min, y_max = _data_range(series_list)
    if x_range is not None:
        x_min, x_max = x_range
    if y_range is not None:
        y_min, y_max = y_range

    def sx(x):
        return MARGIN_L + (x - x_min) / (x_max - x_min) * PLOT_W

    def sy(y):
        return MARGIN_T + (1.0 - (y - y_min) / (y_max - y_min)) * PLOT_H

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
           f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n')
    yield f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>\n'
    yield (f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="16">{escape(title)}</text>\n')

    # axes box and ticks
    yield (f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(PLOT_W)}" '
           f'height="{_fmt(PLOT_H)}" fill="none" stroke="#333333" stroke-width="1"/>\n')
    n_ticks = 5
    for i in range(n_ticks + 1):
        fx = x_min + (x_max - x_min) * i / n_ticks
        px = sx(fx)
        yield (f'<line x1="{_fmt(px)}" y1="{_fmt(MARGIN_T + PLOT_H)}" '
               f'x2="{_fmt(px)}" y2="{_fmt(MARGIN_T + PLOT_H + 5)}" stroke="#333333"/>\n')
        yield (f'<text x="{_fmt(px)}" y="{_fmt(MARGIN_T + PLOT_H + 20)}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="11">'
               f'{_tick_label(fx)}</text>\n')
        fy = y_min + (y_max - y_min) * i / n_ticks
        py = sy(fy)
        yield (f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
               f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" stroke="#333333"/>\n')
        yield (f'<text x="{_fmt(MARGIN_L - 9)}" y="{_fmt(py + 4)}" '
               f'text-anchor="end" font-family="sans-serif" font-size="11">'
               f'{_tick_label(fy)}</text>\n')
    yield (f'<text x="{_fmt(MARGIN_L + PLOT_W / 2)}" y="{_fmt(HEIGHT - 12)}" '
           f'text-anchor="middle" font-family="sans-serif" font-size="13">'
           f'{escape(xlabel)}</text>\n')
    yield (f'<text x="16" y="{_fmt(MARGIN_T + PLOT_H / 2)}" text-anchor="middle" '
           f'font-family="sans-serif" font-size="13" '
           f'transform="rotate(-90 16 {_fmt(MARGIN_T + PLOT_H / 2)})">'
           f'{escape(ylabel)}</text>\n')

    for s in series_list:
        yield '<path d="'
        yield from _path_data(s, sx, sy)
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        yield (f'" fill="none" stroke="{s.color}" '
               f'stroke-width="1.8"{dash} data-series="{escape(s.label)}"/>\n')

    # legend
    ly = MARGIN_T + 12
    for s in series_list:
        lx = MARGIN_L + PLOT_W - 150
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        yield (f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
               f'y2="{_fmt(ly - 4)}" stroke="{s.color}" stroke-width="1.8"{dash}/>\n')
        yield (f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-family="sans-serif" '
               f'font-size="12">{escape(s.label)}</text>\n')
        ly += 16

    ay = MARGIN_T + 14
    for note in annotations:
        yield (f'<text x="{_fmt(MARGIN_L + 8)}" y="{_fmt(ay)}" '
               f'font-family="sans-serif" font-size="12" fill="#333333" '
               f'class="annotation">{escape(note)}</text>\n')
        ay += 16

    yield "</svg>\n"
