"""Probe registry invariants: coverage, determinism, metric hygiene."""

import pathlib

import pytest

from repro.perf.probes import PROBES

GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "goldens"


def committed_families(goldens=GOLDENS):
    """Families with a committed ``probe_<family>.json`` golden."""
    return {p.stem.removeprefix("probe_") for p in goldens.glob("probe_*.json")}


def test_every_bench_family_has_a_probe():
    # a probe without a golden fails here
    assert set(PROBES) <= committed_families()


def test_every_committed_baseline_has_a_probe():
    # a golden without a probe fails here
    assert committed_families() <= set(PROBES)


@pytest.mark.parametrize("name", ["fig6", "simcore"])
def test_probe_is_deterministic(name):
    first = PROBES[name]()
    assert first, f"probe {name} returned no metrics"
    assert PROBES[name]() == first


@pytest.mark.parametrize("name", ["fig6", "simcore"])
def test_probe_metrics_are_json_scalars(name):
    for metric, value in PROBES[name]().items():
        assert isinstance(metric, str) and metric
        assert isinstance(value, (int, float, str)), (metric, value)
