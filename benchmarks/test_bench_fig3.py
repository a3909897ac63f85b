"""Figure 3: zero-byte message rate under the three design strategies.

Regenerates panels (a), (b), (c) into results/fig3*.{txt,csv}.  The
timed kernel is one mid-size Multirate run of the panel's configuration
(the unit of work every data point repeats).
"""

import pytest

from repro.core import ThreadingConfig
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure3 import PANELS
from repro.workloads import MultirateConfig, run_multirate


@pytest.mark.parametrize("panel", ["a", "b", "c"])
def test_fig3_panel(benchmark, save_figure, quick, panel):
    """Time one panel's unit-of-work run; regenerate the exhibit."""
    progress, comm_per_pair, _ = PANELS[panel]

    def one_point():
        return run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            comm_per_pair=comm_per_pair),
            threading=ThreadingConfig(num_instances=20, assignment="dedicated",
                                      progress=progress))

    result = benchmark.pedantic(one_point, rounds=3, iterations=1)
    assert result.messages == 8 * 64 * 2

    fig = run_figure3(panel, quick=quick)
    save_figure(fig)
    assert len(fig.series) == 6


def test_bench_fig3_baseline(perf_baseline):
    """Record Figure 3's deterministic metrics to the perf registry."""
    metrics = perf_baseline("fig3")
    for panel in ("a", "b", "c"):
        assert metrics[f"{panel}.messages"] == 1024
        assert metrics[f"{panel}.elapsed_ns"] > 0
