"""Deterministic simulated-threading substrate.

This package provides the execution model underneath the whole reproduction:
*simulated threads* are generator coroutines scheduled on a virtual-time
discrete-event scheduler.  All costs are expressed in integer nanoseconds of
virtual time, so contention, serialization and interleaving effects are
emergent properties of the schedule rather than artifacts of the host
machine (or of the CPython GIL, which would otherwise defeat a threading
study in Python).

Public surface:

* :class:`~repro.simthread.scheduler.Scheduler` -- the event loop.
* :class:`~repro.simthread.thread.SimThread` -- a simulated thread handle.
* :class:`~repro.simthread.sync.SimLock` -- mutual exclusion with modeled
  acquisition/handoff/migration costs -- and
  :class:`~repro.simthread.sync.SimBarrier`.
* :class:`~repro.simthread.atomics.AtomicCounter` -- modeled atomic RMW.
* :class:`~repro.simthread.tls.ThreadLocal` -- thread-local storage.

A simulated thread body is a generator.  It interacts with the scheduler by
``yield``-ing commands.  A step that may park is a generator driven with
``yield from``; a step that never parks is a plain call that returns the
value or the command the caller yields::

    def worker(sched, lock, counter):
        yield Delay(100)                      # do 100 ns of work
        yield from lock.acquire()             # may park
        v = counter.fetch_add()
        yield counter.cost_delay              # the RMW latency
        yield lock.release()
        return v

    sched = Scheduler(seed=1)
    t = sched.spawn(worker(sched, lock, counter))
    sched.run()
    assert t.done
"""

from repro.simthread.errors import DeadlockError, SimError, SimThreadError
from repro.simthread.scheduler import SUSPEND, Delay, Scheduler, YieldNow
from repro.simthread.stats import SchedStats
from repro.simthread.thread import SimThread
from repro.simthread.sync import LockCosts, SimBarrier, SimLock
from repro.simthread.atomics import AtomicCounter
from repro.simthread.tls import ThreadLocal

__all__ = [
    "AtomicCounter",
    "DeadlockError",
    "Delay",
    "LockCosts",
    "SUSPEND",
    "SchedStats",
    "Scheduler",
    "SimBarrier",
    "SimError",
    "SimLock",
    "SimThread",
    "SimThreadError",
    "ThreadLocal",
    "YieldNow",
]
