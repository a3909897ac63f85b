"""Figure 7: RMA-MT put+flush on the KNL/Aries preset (1-64 threads)."""

from repro.core import ThreadingConfig
from repro.experiments.figure7 import run_figure7
from repro.experiments.testbeds import TRINITITE_KNL
from repro.workloads import RmaMtConfig, run_rmamt


def test_fig7(benchmark, save_figure, quick):
    """Time one KNL RMA-MT run; regenerate the Figure 7 exhibit."""
    def one_point():
        return run_rmamt(
            RmaMtConfig(threads=32, ops_per_thread=100, msg_bytes=128),
            threading=ThreadingConfig(
                num_instances=TRINITITE_KNL.default_instances,
                assignment="dedicated"),
            costs=TRINITITE_KNL.costs, fabric=TRINITITE_KNL.fabric)

    benchmark.pedantic(one_point, rounds=3, iterations=1)

    figs = run_figure7(quick=quick)
    save_figure(figs)
    assert figs[0].get("dedicated/serial").points[-1].x == 64


def test_bench_fig7_baseline(perf_baseline):
    """Record Figure 7's deterministic metrics to the perf registry."""
    metrics = perf_baseline("fig7")
    assert metrics["elapsed_ns"] > 0
    assert metrics["message_rate"] > 0
