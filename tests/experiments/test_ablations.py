"""The mechanism ablations and the chaos exhibit: committed bytes + shapes.

Regenerates the five ``ablation-*`` exhibits and ``chaos`` through the
registry and the CLI's writer, and compares every file with the
committed ``results/`` bytes.  The direction asserts are the ones each
ablation exists to show (DESIGN.md section 5).
"""

import pathlib

import pytest

from repro.experiments.ablations import FIGURES
from repro.experiments.artifacts import save_result
from repro.experiments.registry import run_experiment

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"
EXHIBITS = tuple(f"ablation-{m}" for m in FIGURES) + ("chaos",)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """Each exhibit's figure plus the directory its files were saved in."""
    out = tmp_path_factory.mktemp("exhibits")
    figures = {}
    for exp_id in EXHIBITS:
        figures[exp_id] = run_experiment(exp_id)
        save_result(figures[exp_id], out)
    return figures, out


def test_regenerated_exhibits_match_committed_bytes(regenerated):
    _, out = regenerated
    names = sorted(f"{exp_id}{suffix}" for exp_id in EXHIBITS
                   for suffix in (".csv", ".svg", ".txt"))
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (RESULTS / name).read_bytes(), name


def _on_off(regenerated, mechanism, series):
    figures, _ = regenerated
    line = figures[f"ablation-{mechanism}"].get(series)
    return line.at(0).mean, line.at(1).mean


def test_fifo_locks_cut_out_of_sequence(regenerated):
    unfair, fair = _on_off(regenerated, "fairness", "oos_fraction")
    assert fair < unfair


def test_migration_penalty_drives_match_time(regenerated):
    with_penalty, without = _on_off(regenerated, "migration", "match_time_ms")
    assert without < 0.7 * with_penalty


def test_convoy_costs_single_instance_rate(regenerated):
    with_convoy, without = _on_off(regenerated, "convoy", "rate")
    assert without > with_convoy


def test_wire_jitter_adds_out_of_sequence(regenerated):
    jittered, clean = _on_off(regenerated, "jitter", "oos_fraction")
    assert clean <= jittered


def test_host_gap_caps_concurrent_matching(regenerated):
    capped, uncapped = _on_off(regenerated, "hostgap", "rate")
    assert uncapped > capped
