"""Extension exhibits: message-size sweep, CRI-count sweep, binding modes."""

from repro.experiments.extensions import (
    run_entity_modes,
    run_instance_sweep,
    run_latency_tails,
    run_message_size_sweep,
)


def test_ext_msgsize(benchmark, save_figure, quick):
    """Message-size sweep: rate falls to bandwidth-bound at 256 KiB."""
    fig = benchmark.pedantic(
        lambda: run_message_size_sweep(quick=quick),
        rounds=1, iterations=1)
    save_figure(fig)
    rate = fig.get("rate")
    assert rate.at(0).mean > rate.at(262144).mean  # bandwidth bound at the top


def test_ext_instances(benchmark, save_figure, quick):
    """CRI-count sweep: serial vs concurrent progress series."""
    fig = benchmark.pedantic(
        lambda: run_instance_sweep(quick=quick),
        rounds=1, iterations=1)
    save_figure(fig)
    assert len(fig.series) == 2


def test_ext_latency(benchmark, save_figure, quick):
    """Latency-tail exhibit: p50/p99/max series per configuration."""
    fig = benchmark.pedantic(
        lambda: run_latency_tails(quick=quick),
        rounds=1, iterations=1)
    save_figure(fig)
    assert len(fig.series) == 3


def test_ext_modes(benchmark, save_figure, quick):
    """Entity-mode exhibit: threads vs processes vs hybrid."""
    fig = benchmark.pedantic(
        lambda: run_entity_modes(quick=quick),
        rounds=1, iterations=1)
    save_figure(fig)
    assert set(fig.labels) == {"threads", "processes", "hybrid"}


def test_bench_extensions_baseline(perf_baseline):
    """Record the ext-modes exhibit fingerprint to the perf registry."""
    metrics = perf_baseline("extensions")
    assert metrics["series"] == 3
    assert len(metrics["csv_sha"]) == 16
