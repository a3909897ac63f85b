"""Property-based tests for the scheduling substrate."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.simthread import SUSPEND, Delay, SchedStats, Scheduler, SimLock, YieldNow


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000),
                       min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_serial_delays_sum_exactly_without_jitter(delays):
    sched = Scheduler(jitter=0.0)

    def body():
        for d in delays:
            yield Delay(d)

    sched.spawn(body())
    assert sched.run() == sum(delays)


@given(steps=st.lists(st.tuples(st.integers(0, 3),  # thread index
                                st.integers(1, 500)),  # delay
                      min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_virtual_time_is_monotonic_across_thread_mix(steps, seed):
    sched = Scheduler(seed=seed, jitter=0.1)
    stamps = []
    per_thread = {i: [] for i in range(4)}
    for tid, d in steps:
        per_thread[tid].append(d)

    def worker(my_delays):
        for d in my_delays:
            yield Delay(d)
            stamps.append(sched.now)

    for tid, ds in per_thread.items():
        if ds:
            sched.spawn(worker(ds))
    sched.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == len(steps)


@given(nthreads=st.integers(2, 8), ncrit=st.integers(1, 10),
       seed=st.integers(0, 2 ** 20),
       fairness=st.sampled_from(["fair", "unfair"]))
@settings(max_examples=30, deadline=None)
def test_lock_critical_sections_never_overlap(nthreads, ncrit, seed, fairness):
    sched = Scheduler(seed=seed)
    lock = SimLock(sched, fairness=fairness)
    intervals = []

    def worker():
        for _ in range(ncrit):
            yield from lock.acquire()
            start = sched.now
            yield Delay(100)
            intervals.append((start, sched.now))
            yield lock.release()

    for _ in range(nthreads):
        sched.spawn(worker())
    sched.run()
    intervals.sort()
    for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "two critical sections overlapped"
    assert len(intervals) == nthreads * ncrit


@given(seed=st.integers(0, 2 ** 20))
@settings(max_examples=25, deadline=None)
def test_determinism_property(seed):
    def run_once():
        sched = Scheduler(seed=seed, jitter=0.08)
        lock = SimLock(sched)
        log = []

        def worker(i):
            for _ in range(5):
                yield from lock.acquire()
                log.append((i, sched.now))
                yield Delay(37)
                yield lock.release()

        for i in range(5):
            sched.spawn(worker(i))
        sched.run()
        return log

    assert run_once() == run_once()


_INSTANTS = st.sampled_from([0, 50, 100])
_ACTIONS = st.lists(st.tuples(
    st.sampled_from(["delay", "exact", "yield", "suspend", "call"]), _INSTANTS),
    max_size=8)


@given(scripts=st.lists(_ACTIONS, min_size=1, max_size=4),
       calls=st.lists(_INSTANTS, max_size=4),
       seed=st.integers(0, 2 ** 20),
       instrumented=st.booleans(),
       pause_at=st.one_of(st.none(), _INSTANTS))
@settings(max_examples=60, deadline=None)
def test_threads_and_callbacks_run_in_one_order(scripts, calls, seed,
                                                instrumented, pause_at):
    """Every event runs in (virtual time, scheduling order), whichever
    queue holds it: a thread's Delay/YieldNow is numbered just before it
    yields, a wake through its value, a ``call_at`` through its argument.
    Delays of 0 and unjittered delays make the instants collide."""
    sched = Scheduler(seed=seed, jitter=0.1)
    if instrumented:
        sched.set_stats(SchedStats())
    seq = itertools.count()
    log = []

    def record(number):
        log.append((sched.now, number))

    def waker(number, thread, delay):
        record(number)
        sched.wake(thread, value=next(seq), delay=delay)

    def worker(script, number):
        record(number)
        for kind, ns in script:
            if kind == "call":
                sched.call_at(sched.now + ns, record, next(seq))
            elif kind == "suspend":
                sched.call_at(sched.now + ns, waker, next(seq), sched.current, ns)
                record((yield SUSPEND))
            else:
                number = next(seq)
                yield (YieldNow() if kind == "yield"
                       else Delay(ns, jitter=kind == "delay"))
                record(number)

    for script in scripts:
        sched.spawn(worker(script, next(seq)))
    for when in calls:
        sched.call_at(when, record, next(seq))
    if pause_at is not None:
        sched.run(max_time=pause_at)
    sched.run()
    assert log == sorted(log)
    assert sorted(number for _, number in log) == list(range(next(seq)))
    assert sched._ready == [] and sched._calls == []
