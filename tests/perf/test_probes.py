"""Probe registry invariants: coverage, determinism, metric hygiene."""

import pathlib

import pytest

from repro.perf import PROBES, run_probe

REPO = pathlib.Path(__file__).resolve().parents[2]


def _committed_families():
    return {p.stem.removeprefix("BENCH_")
            for p in (REPO / "results").glob("BENCH_*.json")}


def test_every_bench_family_has_a_probe():
    assert set(PROBES) <= _committed_families()


def test_every_committed_baseline_has_a_probe():
    assert _committed_families() <= set(PROBES)


def test_unknown_probe_name_is_rejected():
    with pytest.raises(KeyError, match="no probe named"):
        run_probe("nope")


@pytest.mark.parametrize("name", ["fig6", "simcore", "table1"])
def test_probe_is_deterministic(name):
    first = run_probe(name)
    assert first, f"probe {name} returned no metrics"
    assert run_probe(name) == first


@pytest.mark.parametrize("name", ["fig6", "simcore", "table1"])
def test_probe_metrics_are_json_scalars(name):
    for metric, value in run_probe(name).items():
        assert isinstance(metric, str) and metric
        assert isinstance(value, (int, float, str)), (metric, value)
