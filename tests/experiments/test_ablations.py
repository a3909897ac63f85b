"""The mechanism ablations and the chaos exhibit: committed bytes + shapes.

Reads the session's regeneration of every committed exhibit (the
``exhibits`` fixture, which ``test_exhibits.py`` pins to ``results/``
as a whole): the five ``ablation-*`` exhibits and ``chaos`` must have
been written and match the committed bytes, and the direction asserts
are the ones each ablation exists to show (DESIGN.md section 5).
"""

from repro.experiments.ablations import FIGURES
from tests.experiments.conftest import RESULTS

EXHIBITS = tuple(f"ablation-{m}" for m in FIGURES) + ("chaos",)


def test_regenerated_exhibits_match_committed_bytes(exhibits):
    written = {path.name: path for path in exhibits.paths}
    names = sorted(f"{exp_id}{suffix}" for exp_id in EXHIBITS
                   for suffix in (".csv", ".svg", ".txt"))
    assert set(names) <= set(written)
    for name in names:
        assert written[name].read_bytes() == (RESULTS / name).read_bytes(), name


def _on_off(exhibits, mechanism, series):
    line = exhibits.figures[f"ablation-{mechanism}"].get(series)
    return line.at(0).mean, line.at(1).mean


def test_fifo_locks_cut_out_of_sequence(exhibits):
    unfair, fair = _on_off(exhibits, "fairness", "oos_fraction")
    assert fair < unfair


def test_migration_penalty_drives_match_time(exhibits):
    with_penalty, without = _on_off(exhibits, "migration", "match_time_ms")
    assert without < 0.7 * with_penalty


def test_convoy_costs_single_instance_rate(exhibits):
    with_convoy, without = _on_off(exhibits, "convoy", "rate")
    assert without > with_convoy


def test_wire_jitter_adds_out_of_sequence(exhibits):
    jittered, clean = _on_off(exhibits, "jitter", "oos_fraction")
    assert clean <= jittered


def test_host_gap_caps_concurrent_matching(exhibits):
    capped, uncapped = _on_off(exhibits, "hostgap", "rate")
    assert uncapped > capped
