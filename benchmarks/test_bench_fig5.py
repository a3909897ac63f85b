"""Figure 5: process vs thread across implementation profiles."""

from repro.baselines import profile_by_name
from repro.experiments.figure5 import run_figure5
from repro.workloads import MultirateConfig, run_multirate


def test_fig5(benchmark, save_figure, quick):
    """Time the starred-profile run; regenerate the Figure 5 exhibit."""
    star = profile_by_name("OMPI Thread + CRIs*")

    def one_point():
        return run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            entity_mode=star.entity_mode,
                            comm_per_pair=star.comm_per_pair),
            threading=star.config, costs=star.costs())

    benchmark.pedantic(one_point, rounds=3, iterations=1)

    fig = run_figure5(quick=quick)
    save_figure(fig)
    # Sanity: the paper's headline orderings at the largest pair count.
    x = fig.get("OMPI Process").points[-1].x
    assert fig.get("OMPI Process").at(x).mean > fig.get("OMPI Thread + CRIs*").at(x).mean
    assert fig.get("OMPI Thread + CRIs*").at(x).mean > fig.get("OMPI Thread").at(x).mean


def test_bench_fig5_baseline(perf_baseline):
    """Record Figure 5's deterministic metrics to the perf registry."""
    metrics = perf_baseline("fig5")
    for profile in ("process", "thread", "star"):
        assert metrics[f"{profile}.message_rate"] > 0
