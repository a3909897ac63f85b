"""Table I: testbed configuration table (regeneration is trivial; the
benchmark times preset construction + rendering)."""

from repro.experiments.table1 import run_table1


def test_table1(benchmark, save_figure):
    """Regenerate the Table I testbed rows exhibit."""
    fig = benchmark(run_table1)
    save_figure(fig)
    assert "alembert" in fig.to_ascii()


def test_bench_table1_baseline(perf_baseline):
    """Record Table I's row fingerprint to the perf registry."""
    metrics = perf_baseline("table1")
    assert metrics["cells"] > 0
    assert len(metrics["rows_sha"]) == 16
