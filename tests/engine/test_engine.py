"""Engine orchestration: dedup, counters, caching, ambient scoping."""

import threading

import pytest

from repro.engine import (
    Engine,
    TrialCache,
    TrialSpec,
    TrialTask,
    current_engine,
    set_engine,
    trial,
    use_engine,
)


@trial("enginetest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the engine tests."""
    return float(x) * scale + seed


def _tasks(xs, seed=5, **params):
    spec = TrialSpec.make("enginetest.echo", **params)
    return [TrialTask(spec, x, seed) for x in xs]


def test_values_in_submission_order():
    engine = Engine()
    assert engine.run_tasks(_tasks([3, 1, 2])) == [8.0, 6.0, 7.0]
    assert engine.counters.trials == 3
    assert engine.counters.cache_misses == 3


def test_duplicate_tasks_compute_once():
    engine = Engine()
    values = engine.run_tasks(_tasks([1, 1, 1]))
    assert values == [6.0, 6.0, 6.0]
    assert engine.counters.trials == 1
    assert engine.counters.duplicates == 2


def test_unhashable_params_still_run():
    spec = TrialSpec.make("enginetest.echo", scale=1, tag=["unhashable"])
    with pytest.raises(TypeError):
        hash(spec)
    task = TrialTask(spec, 2, 5)
    assert Engine().run_tasks([task, task]) == [7.0, 7.0]


def test_cache_round_trip_and_counters(tmp_path):
    cold = Engine(cache=TrialCache(tmp_path))
    assert cold.run_tasks(_tasks([1, 2])) == [6.0, 7.0]
    assert cold.counters.cache_misses == 2 and cold.counters.cache_hits == 0

    warm = Engine(cache=TrialCache(tmp_path))
    assert warm.run_tasks(_tasks([1, 2])) == [6.0, 7.0]
    assert warm.counters.cache_hits == 2
    assert warm.counters.cache_misses == 0   # zero recomputation


def test_uncacheable_counted_not_stored(tmp_path):
    class Opaque:
        pass

    engine = Engine(cache=TrialCache(tmp_path))
    engine.run_tasks(_tasks([1], ob=Opaque()))
    assert engine.counters.uncacheable == 1
    assert engine.counters.cache_misses == 0
    assert engine.cache.entry_count() == 0


def test_parallel_matches_serial_values():
    serial = Engine(jobs=1).run_tasks(_tasks(range(8)))
    parallel = Engine(jobs=4).run_tasks(_tasks(range(8)))
    assert parallel == serial


def test_parallel_records_worker_busy_time():
    engine = Engine(jobs=2)
    engine.run_tasks(_tasks(range(6)))
    assert engine.counters.busy_ns > 0
    assert engine.counters.workers
    assert 0.0 <= engine.utilization() <= 1.0


def test_jobs_validation():
    with pytest.raises(ValueError):
        Engine(jobs=0)


def test_run_task_singular():
    assert Engine().run_task(_tasks([4])[0]) == 9.0


def test_ambient_engine_scoping():
    default = current_engine()
    scoped = Engine(jobs=1)
    with use_engine(scoped) as active:
        assert active is scoped
        assert current_engine() is scoped
    assert current_engine() is default


def test_use_engine_is_thread_local():
    # two threads scope different engines at once; neither sees the other's
    engines = {name: Engine(jobs=1) for name in ("a", "b")}
    seen = {}
    inside = threading.Barrier(2, timeout=30)

    def body(name):
        with use_engine(engines[name]):
            inside.wait()                      # both threads scoped in
            seen[name] = current_engine()
            inside.wait()

    threads = [threading.Thread(target=body, args=(name,))
               for name in engines]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert seen["a"] is engines["a"] and seen["b"] is engines["b"]
    assert all(current_engine() is not e for e in engines.values())


def test_set_engine_returns_previous():
    default = current_engine()
    other = Engine()
    assert set_engine(other) is default
    try:
        assert current_engine() is other
    finally:
        set_engine(default)


def test_summary_mentions_cache_state(tmp_path):
    assert "cache=off" in Engine().summary()
    assert str(tmp_path) in Engine(cache=TrialCache(tmp_path)).summary()


def test_corrupt_entry_recomputed_and_counted(tmp_path):
    cache = TrialCache(tmp_path)
    Engine(cache=cache).run_tasks(_tasks([1, 2]))
    victim = cache._path(cache.key_for(_tasks([1])[0]))
    victim.write_text("{torn write")

    engine = Engine(cache=TrialCache(tmp_path))
    assert engine.run_tasks(_tasks([1, 2])) == [6.0, 7.0]
    assert engine.counters.corrupt == 1
    assert engine.counters.cache_hits == 1        # the intact entry
    assert engine.counters.cache_misses == 1      # the quarantined one
    assert "quarantined 1 corrupt cache entries" in engine.summary()


def test_supervision_counters_zero_on_clean_parallel_run():
    engine = Engine(jobs=4)
    engine.run_tasks(_tasks(range(8)))
    c = engine.counters
    assert (c.retries, c.timeouts, c.worker_deaths, c.respawns) == (0, 0, 0, 0)
    assert "supervision" not in engine.summary()


def test_fault_injection_surfaces_in_counters_and_summary():
    from repro.engine import RetryPolicy
    from repro.faults.workers import WorkerFaultPlan

    engine = Engine(jobs=2,
                    policy=RetryPolicy(max_retries=2, backoff_s=0.01),
                    faults=WorkerFaultPlan(seed=3, kill_rate=1.0))
    values = engine.run_tasks(_tasks(range(4)))
    assert values == Engine().run_tasks(_tasks(range(4)))
    assert engine.counters.worker_deaths == 4
    assert engine.counters.retries == 4
    assert "supervision: 4 retries" in engine.summary()
