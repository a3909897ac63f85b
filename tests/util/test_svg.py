"""SVG renderers: figure charts, flamegraphs, sparklines."""

from repro.util.records import FigureResult, Series
from repro.util.svg import render_flamegraph, render_sparkline, render_svg


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


FOLDED = [
    {"stack": "main;run;step", "calls": 10, "self_ns": 500},
    {"stack": "main;run", "calls": 1, "self_ns": 300},
    {"stack": "main;other", "calls": 2, "self_ns": 200},
]


def test_flamegraph_renders_all_frames():
    svg = render_flamegraph(FOLDED, title="hot loop")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "hot loop" in svg
    for frame in ("all", "main", "run", "step", "other"):
        assert f"<title>{frame} " in svg or f">{frame}<" in svg


def test_flamegraph_is_deterministic_and_proportional():
    assert render_flamegraph(FOLDED) == render_flamegraph(FOLDED)
    by_calls = render_flamegraph(FOLDED, value_key="calls")
    assert by_calls != render_flamegraph(FOLDED)
    assert "<script" not in by_calls          # explorable without scripts


def test_flamegraph_empty_rows():
    svg = render_flamegraph([])
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_flamegraph_escapes_frame_names():
    rows = [{"stack": "a<b;c&d", "calls": 1, "self_ns": 10}]
    svg = render_flamegraph(rows)
    assert "a&lt;b" in svg and "c&amp;d" in svg
    assert "a<b" not in svg


def test_sparkline_plots_series():
    svg = render_sparkline([1.0, 2.0, 1.5, 3.0])
    assert svg.startswith("<svg") and "<path" in svg
    assert "circle" in svg                    # endpoint dot


def test_sparkline_flags_regression():
    plain = render_sparkline([1.0, 1.0, 2.0])
    flagged = render_sparkline([1.0, 1.0, 2.0], flag_last=True)
    assert plain != flagged
    assert "#d62728" in flagged or "red" in flagged


def test_sparkline_flat_and_empty_series():
    assert "<svg" in render_sparkline([])
    flat = render_sparkline([5, 5, 5])
    assert "<path" in flat
