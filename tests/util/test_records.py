"""Figure/series result records."""

import pytest

from repro.util.records import FigureResult, Series, SeriesPoint


def make_fig():
    fig = FigureResult("figX", "Test figure", "threads", "rate")
    fig.series.append(Series.from_xy("a", [1, 2, 4], [10.0, 20.0, 40.0]))
    fig.series.append(Series.from_xy("b", [1, 2, 4], [5.0, 5.0, 5.0], [0.1, 0.2, 0.3]))
    return fig


def test_series_accessors():
    s = Series.from_xy("a", [1, 2], [10.0, 20.0])
    assert s.xs == (1, 2)
    assert s.means == (10.0, 20.0)
    assert s.at(2).mean == 20.0
    with pytest.raises(KeyError):
        s.at(99)


def test_series_from_xy_validates_lengths():
    with pytest.raises(ValueError):
        Series.from_xy("a", [1, 2], [1.0])


def test_point_validates_std():
    with pytest.raises(ValueError):
        SeriesPoint(1, 2.0, -1.0)


def test_figure_get_and_labels():
    fig = make_fig()
    assert fig.labels == ["a", "b"]
    assert fig.get("b").at(1).std == 0.1
    with pytest.raises(KeyError):
        fig.get("zzz")


def test_ascii_render_contains_all_series_and_xs():
    text = make_fig().to_ascii()
    assert "figX" in text and "Test figure" in text
    for token in ("a", "b", "1", "2", "4"):
        assert token in text


def test_csv_render_is_long_form():
    csv = make_fig().to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "fig,series,x,mean,std"
    assert len(lines) == 1 + 6
    assert "figX,a,1,10.0,0.0" in csv
