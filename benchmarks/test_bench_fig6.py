"""Figure 6: RMA-MT put+flush on the Haswell/Aries preset."""

from repro.core import ThreadingConfig
from repro.experiments.figure6 import run_figure6
from repro.experiments.testbeds import TRINITITE_HASWELL
from repro.workloads import RmaMtConfig, run_rmamt


def test_fig6(benchmark, save_figure, quick):
    """Time one Haswell RMA-MT run; regenerate the Figure 6 exhibit."""
    def one_point():
        return run_rmamt(
            RmaMtConfig(threads=16, ops_per_thread=150, msg_bytes=128),
            threading=ThreadingConfig(
                num_instances=TRINITITE_HASWELL.default_instances,
                assignment="dedicated"),
            costs=TRINITITE_HASWELL.costs, fabric=TRINITITE_HASWELL.fabric)

    benchmark.pedantic(one_point, rounds=3, iterations=1)

    figs = run_figure6(quick=quick)
    save_figure(figs)
    assert len(figs) == 5  # one per message size


def test_bench_fig6_baseline(perf_baseline):
    """Record Figure 6's deterministic metrics to the perf registry."""
    metrics = perf_baseline("fig6")
    assert metrics["elapsed_ns"] > 0
    assert metrics["message_rate"] > 0
