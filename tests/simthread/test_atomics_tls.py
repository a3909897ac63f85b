"""Thread-local storage."""

import pytest

from repro.simthread import Delay, Scheduler, ThreadLocal
from repro.simthread.errors import SimThreadError


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
