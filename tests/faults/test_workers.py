"""WorkerFaultPlan: seeded decisions, validation, apply() mechanics."""

import pytest

from repro.faults.workers import WorkerFaultPlan
from repro.faults import workers as workers_mod


def test_decide_is_deterministic():
    a = WorkerFaultPlan(seed=7, kill_rate=0.3, hang_rate=0.3)
    b = WorkerFaultPlan(seed=7, kill_rate=0.3, hang_rate=0.3)
    fates = [a.decide(i, 1) for i in range(50)]
    assert fates == [b.decide(i, 1) for i in range(50)]
    assert {"kill", "hang", None} >= set(fates)


def test_seed_changes_decisions():
    a = WorkerFaultPlan(seed=1, kill_rate=0.5)
    b = WorkerFaultPlan(seed=2, kill_rate=0.5)
    assert [a.decide(i, 1) for i in range(64)] \
        != [b.decide(i, 1) for i in range(64)]


def test_rates_roughly_respected():
    plan = WorkerFaultPlan(seed=5, kill_rate=0.2, hang_rate=0.1)
    fates = [plan.decide(i, 1) for i in range(2000)]
    assert 0.15 < fates.count("kill") / 2000 < 0.25
    assert 0.06 < fates.count("hang") / 2000 < 0.14


def test_zero_rates_never_fault():
    plan = WorkerFaultPlan(seed=5)
    assert all(plan.decide(i, 1) is None for i in range(100))


def test_attempt_cutoff():
    plan = WorkerFaultPlan(seed=5, kill_rate=1.0, faulty_attempts=1)
    assert plan.decide(0, 1) == "kill"
    assert plan.decide(0, 2) is None        # retries run clean


def test_expected_faulty_matches_decide():
    plan = WorkerFaultPlan(seed=5, kill_rate=0.25, hang_rate=0.25)
    n = plan.expected_faulty(40)
    assert n == sum(1 for i in range(40) if plan.decide(i, 1) is not None)
    assert 0 < n < 40


def test_validation():
    with pytest.raises(ValueError):
        WorkerFaultPlan(kill_rate=1.5)
    with pytest.raises(ValueError):
        WorkerFaultPlan(hang_rate=-0.1)
    with pytest.raises(ValueError):
        WorkerFaultPlan(kill_rate=0.6, hang_rate=0.6)  # sum > 1
    with pytest.raises(ValueError):
        WorkerFaultPlan(hang_s=0)
    with pytest.raises(ValueError):
        WorkerFaultPlan(faulty_attempts=-1)


def test_apply_kill_exits_abruptly(monkeypatch):
    exits = []
    monkeypatch.setattr(workers_mod.os, "_exit", exits.append)
    WorkerFaultPlan(seed=5, kill_rate=1.0).apply(0, 1)
    assert exits == [86]


def test_apply_hang_sleeps(monkeypatch):
    naps = []
    monkeypatch.setattr(workers_mod.time, "sleep", naps.append)
    WorkerFaultPlan(seed=5, hang_rate=1.0, hang_s=12.5).apply(0, 1)
    assert naps == [12.5]


def test_apply_clean_is_noop(monkeypatch):
    monkeypatch.setattr(workers_mod.os, "_exit",
                        lambda code: pytest.fail("unexpected exit"))
    monkeypatch.setattr(workers_mod.time, "sleep",
                        lambda s: pytest.fail("unexpected sleep"))
    WorkerFaultPlan(seed=5).apply(0, 1)
