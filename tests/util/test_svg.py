"""SVG renderer for figure charts."""

from repro.util.records import FigureResult, Series
from repro.util.svg import render_svg


def make_fig():
    fig = FigureResult("figT", "Test chart", "threads", "rate")
    fig.series.append(Series.from_xy("alpha", [1, 2, 4, 8], [1e5, 2e5, 4e5, 8e5]))
    fig.series.append(Series.from_xy("beta", [1, 2, 4, 8], [5e4, 5e4, 5e4, 5e4]))
    return fig


def test_renders_valid_svg_with_all_series():
    svg = render_svg(make_fig())
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "figT: Test chart" in svg
    assert "alpha" in svg and "beta" in svg
    assert svg.count("<path") == 2
    assert svg.count("<circle") == 8


def test_axis_labels_present():
    svg = render_svg(make_fig())
    assert ">threads<" in svg
    assert ">rate<" in svg


def test_log_and_linear_axes():
    fig = make_fig()
    log = render_svg(fig, log_y=True)
    lin = render_svg(fig, log_y=False)
    assert log != lin
    assert "100K" in log  # decade tick


def test_empty_figure_renders_placeholder():
    fig = FigureResult("figE", "Empty", "x", "y")
    svg = render_svg(fig)
    assert "no data" in svg


def test_zero_values_skipped_on_log_axis():
    fig = FigureResult("figZ", "Zeroes", "x", "y")
    fig.series.append(Series.from_xy("z", [1, 2, 3], [0.0, 1e5, 2e5]))
    svg = render_svg(fig)
    assert svg.count("<circle") == 2  # the zero point is dropped


def test_single_point_series():
    fig = FigureResult("fig1", "One point", "x", "y")
    fig.series.append(Series.from_xy("solo", [5], [1234.0]))
    svg = render_svg(fig)
    assert "<circle" in svg

