"""Table II: SPC counters (out-of-sequence, match time) at 20 pairs."""

from repro.core import ThreadingConfig
from repro.experiments.table2 import run_table2
from repro.workloads import MultirateConfig, run_multirate


def test_table2(benchmark, save_figure, quick):
    """Time the serial 20-pair run behind Table II's SPC columns."""
    def one_cell():
        return run_multirate(
            MultirateConfig(pairs=20, window=64, windows=2),
            threading=ThreadingConfig(num_instances=20, assignment="dedicated",
                                      progress="serial"))

    result = benchmark.pedantic(one_cell, rounds=2, iterations=1)
    assert result.spc.out_of_sequence_fraction > 0.5  # the paper's 83-90%

    fig = run_table2(quick=quick)
    save_figure(fig)
    assert len(fig.series) == 9


def test_bench_table2_baseline(perf_baseline):
    """Record Table II's SPC metrics to the perf registry."""
    metrics = perf_baseline("table2")
    assert 0.0 <= metrics["oos_fraction"] <= 1.0
    assert metrics["match_time_ns"] > 0
