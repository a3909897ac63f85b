"""Scheduler semantics: ordering, time, determinism, error handling."""

import pytest

from repro.simthread import (
    DeadlockError,
    Delay,
    SUSPEND,
    SchedStats,
    Scheduler,
    SimThreadError,
    YieldNow,
)


def test_empty_scheduler_runs_to_zero_time():
    sched = Scheduler()
    assert sched.run() == 0
    assert sched.events_processed == 0


def test_single_thread_delay_advances_time():
    sched = Scheduler(jitter=0.0)

    def body():
        yield Delay(100)
        yield Delay(250)
        return "done"

    t = sched.spawn(body())
    end = sched.run()
    assert end == 350
    assert t.done and t.result == "done"
    assert t.finished_at == 350


def test_delay_jitter_is_bounded():
    sched = Scheduler(seed=1, jitter=0.1)
    samples = [sched.jittered(1000) for _ in range(200)]
    assert all(900 <= s <= 1100 for s in samples)
    assert len(set(samples)) > 10  # actually varies


def test_delay_no_jitter_flag_is_exact():
    sched = Scheduler(seed=1, jitter=0.5)

    def body():
        yield Delay(777, jitter=False)

    sched.spawn(body())
    assert sched.run() == 777


def test_zero_and_negative_delay_do_not_move_time():
    sched = Scheduler(jitter=0.3)

    def body():
        yield Delay(0)
        yield Delay(-5)

    sched.spawn(body())
    assert sched.run() == 0


def test_threads_interleave_by_virtual_time():
    sched = Scheduler(jitter=0.0)
    log = []

    def worker(name, step):
        for i in range(3):
            yield Delay(step)
            log.append((sched.now, name))

    sched.spawn(worker("fast", 10))
    sched.spawn(worker("slow", 25))
    sched.run()
    assert log == sorted(log, key=lambda e: e[0])
    assert log[0] == (10, "fast")
    assert (25, "slow") in log


def test_same_seed_same_schedule():
    def trace(seed):
        sched = Scheduler(seed=seed, jitter=0.1)
        log = []

        def worker(name):
            for _ in range(5):
                yield Delay(100)
                log.append((sched.now, name))

        for i in range(4):
            sched.spawn(worker(f"w{i}"))
        sched.run()
        return log

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_yieldnow_runs_after_queued_peers():
    sched = Scheduler(jitter=0.0)
    log = []

    def yielder():
        yield YieldNow()
        log.append("yielder")

    def plain():
        if False:
            yield
        log.append("plain")

    sched.spawn(yielder())
    sched.spawn(plain())
    sched.run()
    assert log == ["plain", "yielder"]


def test_call_at_runs_callback_at_time():
    sched = Scheduler(jitter=0.0)
    seen = []
    sched.call_at(500, seen.append, "a")
    sched.call_at(100, seen.append, "b")

    def body():
        yield Delay(1000)

    sched.spawn(body())
    sched.run()
    assert seen == ["b", "a"]


@pytest.mark.parametrize("instrumented", [False, True])
@pytest.mark.parametrize("first", ["callback", "thread"])
def test_callback_and_thread_due_together_run_in_scheduling_order(first, instrumented):
    sched = Scheduler(jitter=0.0)
    if instrumented:
        sched.set_stats(SchedStats())
    log = []

    def sleeper():
        yield Delay(100)
        log.append("thread")

    def booker():
        sched.call_at(100, log.append, "callback")
        yield Delay(0)

    bodies = [booker, sleeper] if first == "callback" else [sleeper, booker]
    for body in bodies:
        sched.spawn(body())
    sched.run()
    assert log == (["callback", "thread"] if first == "callback"
                   else ["thread", "callback"])


def test_exception_in_thread_propagates():
    sched = Scheduler()

    def bad():
        yield Delay(10)
        raise ValueError("boom")

    t = sched.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sched.run()
    assert t.done and t.failed


@pytest.mark.parametrize("instrumented", [False, True])
@pytest.mark.parametrize("failure,error", [("raise", ValueError),
                                           ("unknown command", SimThreadError)])
def test_a_failed_thread_leaves_no_queue_entry(failure, error, instrumented):
    sched = Scheduler(jitter=0.0)
    if instrumented:
        sched.set_stats(SchedStats())

    def bad():
        yield Delay(10)
        if failure == "raise":
            raise ValueError("boom")
        yield 42

    def steady():
        yield Delay(100)

    sched.spawn(bad())
    other = sched.spawn(steady())
    with pytest.raises(error):
        sched.run()
    assert [thread for _, _, thread in sched._ready] == [other]
    assert sched.current is None


@pytest.mark.parametrize("instrumented", [False, True])
def test_current_is_none_in_callbacks_and_after_run(instrumented):
    """A thread's step sets ``current``; a callback (the rendezvous hook
    reads it) and the caller of ``run()`` see ``None``."""
    sched = Scheduler(jitter=0.0)
    if instrumented:
        sched.set_stats(SchedStats())
    seen = []

    def probe():
        seen.append(sched.current)

    def worker(steps):
        for when in steps:
            sched.call_at(sched.now + when, probe)
            yield Delay(when)
        sched.call_at(sched.now, probe)  # due as this thread returns

    def tail():  # the last event is this thread's return
        yield Delay(50)

    threads = [sched.spawn(worker([0, 5, 10])), sched.spawn(worker([5, 5])),
               sched.spawn(tail())]
    sched.call_at(0, probe)
    assert sched.run() == 50
    assert len(seen) == 8 and set(seen) == {None}
    assert sched.current is None
    assert all(thread.done for thread in threads)


def test_unknown_yield_value_is_an_error():
    sched = Scheduler()

    def bad():
        yield 42

    sched.spawn(bad())
    with pytest.raises(SimThreadError, match="unknown command"):
        sched.run()


def test_deadlock_detection():
    sched = Scheduler()

    def parked():
        yield SUSPEND

    sched.spawn(parked(), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        sched.run()


def test_deadlock_error_names_every_parked_thread():
    sched = Scheduler()

    def parked():
        yield SUSPEND

    sched.spawn(parked(), name="alpha")
    sched.spawn(parked(), name="beta")
    with pytest.raises(DeadlockError) as exc:
        sched.run()
    assert "2 thread(s) parked forever" in str(exc.value)
    assert "alpha" in str(exc.value) and "beta" in str(exc.value)
    assert [t.name for t in exc.value.parked] == ["alpha", "beta"]


def test_wake_resumes_parked_thread_with_value():
    sched = Scheduler(jitter=0.0)
    result = []

    def parked():
        value = yield SUSPEND
        result.append((sched.now, value))

    t = sched.spawn(parked())

    def waker():
        yield Delay(300)
        sched.wake(t, value="hello", delay=50)

    sched.spawn(waker())
    sched.run()
    assert result == [(350, "hello")]


def test_wake_errors():
    sched = Scheduler()

    def quick():
        yield Delay(1)

    t = sched.spawn(quick())
    sched.run()
    with pytest.raises(SimThreadError):
        sched.wake(t)  # already finished

    def runnable():
        yield Delay(5)

    t2 = sched.spawn(runnable())
    with pytest.raises(SimThreadError):
        sched.wake(t2)  # not parked

    def parked():
        yield SUSPEND

    t3 = sched.spawn(parked())
    sched.run(max_time=sched.now)
    with pytest.raises(SimThreadError, match="past"):
        sched.wake(t3, delay=-1)  # a wake in the past
    sched.wake(t3)  # the rejected wake left it parked
    sched.run()
    assert t3.done


def test_max_events_guard():
    sched = Scheduler()

    def forever():
        while True:
            yield Delay(1)

    sched.spawn(forever())
    with pytest.raises(SimThreadError, match="max_events"):
        sched.run(max_events=100)


def test_max_time_pauses_not_raises():
    sched = Scheduler(jitter=0.0)

    def slow():
        for _ in range(10):
            yield Delay(100)

    t = sched.spawn(slow())
    sched.run(max_time=250)
    assert not t.done
    assert sched.now <= 250
    sched.run()  # finish the rest
    assert t.done


def test_paused_run_resumes_in_the_same_order():
    def order(pause):
        sched = Scheduler(jitter=0.0)
        log = []

        def body(name):
            yield Delay(100)
            log.append(name)

        sched.spawn(body("a"))
        sched.spawn(body("b"))
        sched.call_at(100, log.append, "cb")
        if pause:
            sched.run(max_time=50)
            assert log == [] and sched.now == 0
        sched.run()
        return log

    assert order(pause=False) == ["cb", "a", "b"]
    assert order(pause=True) == ["cb", "a", "b"]


def test_spawn_requires_generator():
    sched = Scheduler()
    with pytest.raises(SimThreadError):
        sched.spawn(lambda: None)


def test_now_is_read_only():
    sched = Scheduler(jitter=0.0)
    assert sched.now == 0

    def body():
        yield Delay(40)

    sched.spawn(body())
    sched.run()
    assert sched.now == 40
    with pytest.raises(AttributeError):
        sched.now = 0
