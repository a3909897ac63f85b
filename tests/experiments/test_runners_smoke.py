"""Smoke tests: every experiment runner produces well-formed results.

These use tiny custom parameters so the whole file stays fast; the
paper-shape assertions on realistic sizes live in test_shapes.py (marked
slow).
"""

import pytest

from repro.experiments.figure3 import SERIES_SPECS, run_figure3, series_label
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.util.records import FigureResult


def test_registry_covers_every_exhibit():
    assert set(EXPERIMENTS) == {
        "table1", "fig3a", "fig3b", "fig3c", "table2",
        "fig4a", "fig4b", "fig4c", "fig5", "fig6", "fig7",
        "ext-msgsize", "ext-instances", "ext-modes", "ext-latency",
        "chaos", "ablation-fairness", "ablation-migration",
        "ablation-convoy", "ablation-jitter", "ablation-hostgap",
    }
    assert all(e.description for e in EXPERIMENTS.values())


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99")


def test_table1_lists_all_testbeds():
    fig = run_experiment("table1")
    assert isinstance(fig, FigureResult)
    text = fig.to_ascii()
    for name in ("alembert", "trinitite-haswell", "trinitite-knl"):
        assert name in text


def test_figure3_panel_validation():
    with pytest.raises(ValueError):
        run_figure3("z")


class TinyTestbed:
    """Shrunk testbed so smoke runs stay sub-second."""

    def __init__(self):
        from repro.experiments.testbeds import ALEMBERT
        self.name = "tiny"
        self.costs = ALEMBERT.costs
        self.fabric = ALEMBERT.fabric
        self.cores_per_node = 4
        self.default_instances = 4


def test_figure3_result_structure(monkeypatch):
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1, 2))
    fig = run_figure3("a", quick=True, trials=1)
    assert fig.fig_id == "fig3a"
    assert fig.labels == [series_label(i, a) for i, a in SERIES_SPECS]
    for s in fig.series:
        assert s.xs == (1, 2)
        assert all(p.mean > 0 for p in s.points)
    # quick/ASCII/CSV render without error
    assert "fig3a" in fig.to_ascii()
    assert fig.to_csv().count("\n") == 1 + len(fig.series) * 2


def test_figure4_reuses_figure3_machinery(monkeypatch):
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (2,))
    from repro.experiments.figure4 import run_figure4
    fig = run_figure4("c", quick=True, trials=1)
    assert fig.fig_id == "fig4c"
    assert "ordering not enforced" in fig.title


def test_figure5_all_profiles_present(monkeypatch):
    import repro.experiments.figure5 as f5
    monkeypatch.setattr(f5, "QUICK_PAIRS", (1, 2))
    fig = run_figure5(quick=True, trials=1)
    assert len(fig.series) == 8
    assert "OMPI Process" in fig.labels and "MPICH Thread" in fig.labels


def test_figure6_one_result_per_size():
    figs = run_figure6(quick=True, testbed=TinyTestbed(), trials=1, sizes=(1, 4096))
    assert [f.fig_id for f in figs] == ["fig6-1B", "fig6-4096B"]
    for fig in figs:
        assert len(fig.series) == 6
        assert fig.extra["peak_rate"] > 0
        assert all(p.mean > 0 for s in fig.series for p in s.points)


def test_figure7_uses_knl(monkeypatch):
    from repro.experiments.figure7 import run_figure7
    figs = run_figure7(quick=True, testbed=TinyTestbed(), trials=1, sizes=(1,))
    assert figs[0].fig_id == "fig7-1B"


def test_table2_has_nine_cells_per_counter():
    fig = run_table2(quick=True, pairs=4)
    assert len(fig.series) == 9  # 3 strategies x 3 counters
    for s in fig.series:
        assert [p.x for p in s.points] == [1, 10, 20]
    assert fig.extra["total_messages"] == 4 * 64 * 2
