"""Atomic counters and thread-local storage."""

import pytest

from repro.simthread import AtomicCounter, Delay, Scheduler, ThreadLocal
from repro.simthread.errors import SimThreadError


class TestAtomicCounter:
    def test_fetch_add_returns_previous_and_is_unique(self):
        sched = Scheduler(seed=7)
        ctr = AtomicCounter(sched)
        seen = []

        def worker():
            for _ in range(25):
                v = ctr.fetch_add()
                yield ctr.cost_delay
                seen.append(v)
                yield Delay(10)

        for _ in range(4):
            sched.spawn(worker())
        sched.run()
        assert sorted(seen) == list(range(100))  # unique, gap-free
        assert ctr.operations == 100
        assert ctr.fetch_add() == 100

    def test_fetch_add_charges_cost(self):
        sched = Scheduler(jitter=0.0)
        ctr = AtomicCounter(sched, cost_ns=123)

        def body():
            ctr.fetch_add()
            yield ctr.cost_delay

        sched.spawn(body())
        assert sched.run() == 123

    def test_custom_increment(self):
        ctr = AtomicCounter(Scheduler(), start=5)
        assert ctr.fetch_add(10) == 5
        assert ctr.fetch_add() == 15
        assert ctr.operations == 2


class TestThreadLocal:
    def test_isolation_between_threads(self):
        sched = Scheduler(seed=1)
        tls = ThreadLocal(sched, default="unset")
        observed = {}

        def worker(i):
            assert tls.get() == "unset"
            tls.set(i)
            yield Delay(100)  # give others a chance to clobber (they can't)
            observed[i] = tls.get()

        for i in range(6):
            sched.spawn(worker(i))
        sched.run()
        assert observed == {i: i for i in range(6)}

    def test_access_outside_thread_is_error(self):
        tls = ThreadLocal(Scheduler())
        with pytest.raises(SimThreadError):
            tls.get()
