"""Supervised pool: kill/hang/error recovery, retry budget, streaming."""

import pytest

from repro.engine import (
    EngineCounters,
    RetryPolicy,
    TrialRetryError,
    TrialSpec,
    TrialTask,
    run_supervised,
    supervision,
    trial,
)
from repro.faults.workers import WorkerFaultPlan


@trial("supervisetest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the supervision tests."""
    return float(x) * scale + seed


@trial("supervisetest.boom")
def _boom(x, seed, **_extra):
    """A trial that raises on every attempt (exhausts any budget)."""
    raise RuntimeError("boom")


def _tasks(xs, seed=5, fn="supervisetest.echo", **params):
    spec = TrialSpec.make(fn, **params)
    return [TrialTask(spec, x, seed) for x in xs]


def _fast(max_retries=2, timeout_s=None):
    return RetryPolicy(max_retries=max_retries, timeout_s=timeout_s,
                       backoff_s=0.01, backoff_max_s=0.05)


def test_undisturbed_run_matches_serial():
    stats = EngineCounters()
    outcomes = run_supervised(_tasks(range(6)), 2, stats, policy=_fast())
    assert [o.value for o in outcomes] == [float(x) + 5 for x in range(6)]
    assert all(o.attempts == 1 for o in outcomes)
    assert stats == EngineCounters()    # supervision had nothing to do


def test_killed_workers_recovered():
    # every first attempt loses its worker; every retry succeeds
    plan = WorkerFaultPlan(seed=3, kill_rate=1.0, faulty_attempts=1)
    stats = EngineCounters()
    outcomes = run_supervised(
        _tasks(range(4)), 2, stats, policy=_fast(), faults=plan)
    assert [o.value for o in outcomes] == [5.0, 6.0, 7.0, 8.0]
    assert all(o.attempts == 2 for o in outcomes)
    assert stats.worker_deaths == 4
    assert stats.retries == 4
    assert stats.respawns >= 4


def test_hung_workers_timeout_and_recover():
    plan = WorkerFaultPlan(seed=3, hang_rate=1.0, hang_s=30.0,
                           faulty_attempts=1)
    stats = EngineCounters()
    outcomes = run_supervised(
        _tasks(range(2)), 2, stats, policy=_fast(timeout_s=0.3), faults=plan)
    assert [o.value for o in outcomes] == [5.0, 6.0]
    assert stats.timeouts == 2
    assert stats.retries == 2


def test_retry_budget_exhaustion_raises():
    plan = WorkerFaultPlan(seed=3, kill_rate=1.0, faulty_attempts=10)
    stats = EngineCounters()
    with pytest.raises(TrialRetryError) as exc:
        run_supervised(_tasks([1, 2]), 2, stats,
                       policy=_fast(max_retries=1), faults=plan)
    assert exc.value.attempts == 2
    assert "worker died" in str(exc.value)
    # the supervision work done before the failure is already counted
    assert stats.worker_deaths >= 2 and stats.retries >= 1


def test_trial_exception_retried_then_raises():
    with pytest.raises(TrialRetryError, match="RuntimeError: boom"):
        run_supervised(_tasks([1, 2], fn="supervisetest.boom"), 2,
                       EngineCounters(), policy=_fast(max_retries=1))


def test_outcomes_stream_to_callback():
    seen = {}
    outcomes = run_supervised(
        _tasks(range(5)), 2, EngineCounters(), policy=_fast(),
        on_outcome=lambda i, o: seen.setdefault(i, o.value))
    assert seen == {i: o.value for i, o in enumerate(outcomes)}


def test_values_unchanged_by_fault_injection():
    clean = run_supervised(_tasks(range(4)), 2, EngineCounters(),
                           policy=_fast())
    plan = WorkerFaultPlan(seed=9, kill_rate=0.5, hang_rate=0.5,
                           hang_s=30.0, faulty_attempts=1)
    stats = EngineCounters()
    chaotic = run_supervised(
        _tasks(range(4)), 2, stats, policy=_fast(timeout_s=0.3), faults=plan)
    assert [o.value for o in chaotic] == [o.value for o in clean]
    assert stats.worker_deaths + stats.timeouts == 4


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


def test_backoff_grows_and_caps():
    policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, backoff_max_s=0.3)
    assert policy.backoff_for(1) == pytest.approx(0.1)
    assert policy.backoff_for(2) == pytest.approx(0.2)
    assert policy.backoff_for(5) == pytest.approx(0.3)  # capped


def test_supervision_arms_flaky_workers_with_a_default_timeout():
    policy, faults = supervision(3, None)
    assert policy == RetryPolicy(max_retries=3) and faults is None
    policy, faults = supervision(2, None, flaky=0.5, flaky_seed=7)
    assert policy.timeout_s == 30.0        # injected hangs must time out
    assert faults == WorkerFaultPlan(seed=7, kill_rate=0.25, hang_rate=0.25,
                                     hang_s=90.0)
    policy, faults = supervision(2, 2.0, flaky=0.5)
    assert policy.timeout_s == 2.0 and faults.hang_s == 6.0
