"""Scheduler event-loop counters (SchedStats) and the lock registry."""

from repro.simthread import (SUSPEND, Delay, Scheduler, SchedStats, SimLock,
                             YieldNow)
from repro.simthread.stats import lock_rows


def run_counted(body_factory, threads=1):
    """Run a small world with a stats object installed; return (sched, stats)."""
    sched = Scheduler(jitter=0.0)
    stats = SchedStats()
    sched.set_stats(stats)
    for _ in range(threads):
        sched.spawn(body_factory())
    sched.run()
    return sched, stats


def test_counters_track_command_kinds():
    def body():
        yield Delay(10)
        yield Delay(10)
        yield YieldNow()

    _, stats = run_counted(body)
    assert stats.spawns == 1
    assert stats.events_delay == 2
    assert stats.events_yield == 1
    assert stats.events_suspend == 0
    # every dispatched event was pushed and popped exactly once
    assert stats.heap_pushes == stats.heap_pops
    # spawn + 2 delays + 1 yield + final StopIteration step
    assert stats.gen_steps == 4


def test_suspend_and_wake_counted():
    sched = Scheduler(jitter=0.0)
    stats = SchedStats()
    sched.set_stats(stats)

    def sleeper():
        yield SUSPEND

    def waker(target):
        yield Delay(50)
        sched.wake(target)

    t = sched.spawn(sleeper())
    sched.spawn(waker(t))
    sched.run()
    assert stats.events_suspend == 1
    assert stats.wakes == 1
    assert stats.spawns == 2


def test_callbacks_counted():
    sched = Scheduler(jitter=0.0)
    stats = SchedStats()
    sched.set_stats(stats)
    fired = []
    sched.call_at(10, lambda: fired.append(1))
    sched.call_at(20, lambda: fired.append(2))
    sched.run()
    assert fired == [1, 2]
    assert stats.events_callback == 2


def test_stats_object_is_optional_and_detachable():
    sched = Scheduler(jitter=0.0)
    assert sched.stats is None

    def body():
        yield Delay(5)

    sched.spawn(body())
    sched.run()                      # no stats installed: nothing raises
    stats = SchedStats()
    sched.set_stats(stats)
    sched.set_stats(None)
    assert sched.stats is None
    assert stats.gen_steps == 0      # detached before any activity


def test_counting_does_not_change_the_schedule():
    def world(sched):
        lock = SimLock(sched, name="l")

        def body():
            yield from lock.acquire()
            yield Delay(100)
            yield lock.release()

        sched.spawn(body())
        sched.spawn(body())

    plain = Scheduler(seed=7)
    world(plain)
    counted = Scheduler(seed=7)
    counted.set_stats(SchedStats())
    world(counted)
    assert plain.run() == counted.run()
    assert plain.events_processed == counted.events_processed


def test_locks_register_in_creation_order():
    sched = Scheduler()
    a = SimLock(sched, name="alpha")
    b = SimLock(sched, name="beta")
    assert sched.locks == (a, b)


def test_lock_rows_read_the_lock_counters():
    sched = Scheduler(jitter=0.0)
    lock = SimLock(sched, name="m")

    def body():
        yield from lock.acquire()
        yield Delay(10)
        yield lock.release()

    sched.spawn(body())
    sched.spawn(body())
    sched.run()
    (row,) = lock_rows(sched)
    assert row["name"] == "m"
    assert row["acquisitions"] == 2
    assert row["contended"] == 1


def test_as_dict_order_is_stable():
    keys = list(SchedStats().as_dict())
    assert keys == ["events_delay", "events_yield", "events_suspend",
                    "events_callback", "heap_pushes", "heap_pops",
                    "gen_steps", "wakes", "spawns"]
