"""Telemetry under seeded chaos: events agree exactly with counters.

The satellite contract: when ``--flaky-workers``-style fault plans kill
and hang workers, the event log's kill/respawn records must agree
*exactly* with the engine's ``worker_deaths``/``respawns`` counters (and
retry/timeout likewise) -- and scheduler statistics computed inside a
retried trial must be unaffected by the retries, because trials are
pure.
"""

import collections

from repro.engine import Engine, RetryPolicy, TrialSpec, TrialTask, trial
from repro.faults.workers import WorkerFaultPlan
from repro.obs.live import LiveTelemetry, read_events


@trial("chaostele.echo")
def _echo(x, seed, **_extra):
    """Deterministic toy trial used by the chaos telemetry tests."""
    return float(x) + seed


@trial("chaostele.sched")
def _sched_stats(x, seed, **_extra):
    """Run a tiny simulated world and return its SchedStats counters."""
    from repro.simthread import Delay, Scheduler, SchedStats, YieldNow

    def body():
        for _ in range(int(x) + 1):
            yield Delay(10)
        yield YieldNow()

    sched = Scheduler(jitter=0.0, seed=seed)
    stats = SchedStats()
    sched.set_stats(stats)
    sched.spawn(body())
    sched.run()
    return {"gen_steps": stats.gen_steps, "spawns": stats.spawns,
            "events_delay": stats.events_delay,
            "events_yield": stats.events_yield,
            "heap_pushes": stats.heap_pushes,
            "heap_pops": stats.heap_pops}


def _tasks(xs, fn="chaostele.echo", seed=5):
    spec = TrialSpec.make(fn)
    return [TrialTask(spec, x, seed) for x in xs]


def _fast(max_retries=3, timeout_s=None):
    return RetryPolicy(max_retries=max_retries, timeout_s=timeout_s,
                       backoff_s=0.01, backoff_max_s=0.05)


def _chaos_run(tmp_path, tasks, plan, name="telemetry", jobs=2, **policy):
    tele = LiveTelemetry(tmp_path / name, "chaos1")
    engine = Engine(jobs=jobs, policy=_fast(**policy), faults=plan,
                    telemetry=tele)
    values = engine.run_tasks(tasks)
    tele.sweep_finish(True)
    tele.close()
    return engine, tele, values


def test_kill_and_respawn_events_equal_counters(tmp_path):
    plan = WorkerFaultPlan(seed=3, kill_rate=1.0, faulty_attempts=1)
    engine, tele, values = _chaos_run(tmp_path, _tasks(range(4)), plan)
    assert values == [5.0, 6.0, 7.0, 8.0]
    kinds = collections.Counter(
        r["kind"] for r in read_events(tele.dir / "events.jsonl"))
    c = engine.counters
    assert c.worker_deaths == 4                      # every first attempt
    assert kinds["worker.death"] == c.worker_deaths
    assert kinds["worker.respawn"] == c.respawns
    assert kinds["trial.retry"] == c.retries
    assert kinds["trial.timeout"] == c.timeouts == 0
    assert kinds["trial.complete"] == 4


def test_timeout_events_equal_counters(tmp_path):
    plan = WorkerFaultPlan(seed=3, hang_rate=1.0, hang_s=30.0,
                           faulty_attempts=1)
    engine, tele, values = _chaos_run(tmp_path, _tasks(range(3)), plan,
                                      timeout_s=0.5)
    assert values == [5.0, 6.0, 7.0]
    kinds = collections.Counter(
        r["kind"] for r in read_events(tele.dir / "events.jsonl"))
    c = engine.counters
    assert c.timeouts == 3
    assert kinds["trial.timeout"] == c.timeouts
    assert kinds["worker.respawn"] == c.respawns
    assert kinds["trial.retry"] == c.retries


def test_sweep_finish_counters_match_event_tallies(tmp_path):
    plan = WorkerFaultPlan(seed=7, kill_rate=0.5, hang_rate=0.5,
                           hang_s=30.0, faulty_attempts=1)
    _, tele, _ = _chaos_run(tmp_path, _tasks(range(6)), plan,
                            timeout_s=0.5)
    records = read_events(tele.dir / "events.jsonl")
    kinds = collections.Counter(r["kind"] for r in records)
    finish = [r for r in records if r["kind"] == "sweep.finish"][-1]
    counters = finish["counters"]
    assert counters["worker_deaths"] == kinds.get("worker.death", 0)
    assert counters["respawns"] == kinds.get("worker.respawn", 0)
    assert counters["retries"] == kinds.get("trial.retry", 0)
    assert counters["timeouts"] == kinds.get("trial.timeout", 0)
    assert counters["trials"] == 6


def test_sched_stats_unaffected_by_retries(tmp_path):
    # the same trials computed inline (no pool, no faults)...
    baseline = [t.run() for t in _tasks(range(3), fn="chaostele.sched")]
    # ...and through a chaos run where every first attempt dies
    plan = WorkerFaultPlan(seed=3, kill_rate=1.0, faulty_attempts=1)
    engine, _, values = _chaos_run(
        tmp_path, _tasks(range(3), fn="chaostele.sched"), plan)
    assert engine.counters.worker_deaths == 3
    assert values == baseline
    assert all(v["heap_pushes"] == v["heap_pops"] for v in values)
