"""Figure 4: message rate with ordering relaxed (overtaking + ANY_TAG)."""

import pytest

from repro.core import ThreadingConfig
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure3 import PANELS
from repro.workloads import MultirateConfig, run_multirate


@pytest.mark.parametrize("panel", ["a", "b", "c"])
def test_fig4_panel(benchmark, save_figure, quick, panel):
    """Time one relaxed-ordering panel; regenerate the exhibit."""
    progress, comm_per_pair, _ = PANELS[panel]

    def one_point():
        return run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            comm_per_pair=comm_per_pair,
                            allow_overtaking=True, any_tag=True),
            threading=ThreadingConfig(num_instances=20, assignment="dedicated",
                                      progress=progress))

    result = benchmark.pedantic(one_point, rounds=3, iterations=1)
    assert result.spc.out_of_sequence == 0  # overtaking: no seq validation

    fig = run_figure4(panel, quick=quick)
    save_figure(fig)


def test_bench_fig4_baseline(perf_baseline):
    """Record Figure 4's deterministic metrics to the perf registry."""
    metrics = perf_baseline("fig4")
    for panel in ("a", "b", "c"):
        assert metrics[f"{panel}.messages"] == 1024
