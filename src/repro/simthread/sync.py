"""Synchronization primitives with modeled costs.

The centerpiece is :class:`SimLock`, which models the behaviours the paper's
designs hinge on:

* **uncontended vs contended acquisition** -- a thread that wins a free lock
  pays ``acquire_ns``; a thread granted the lock after waiting pays the
  larger ``contended_ns`` (handoff + cache-line transfer).
* **try-lock semantics** (paper section III-C) -- ``try_acquire`` never
  blocks; a failed attempt costs ``tryfail_ns`` and is told apart by the
  command it returns (:attr:`SimLock.tryfail_delay`).
* **unfair grant order** -- real pthread mutexes do not hand the lock to
  waiters FIFO; barging and wakeup races make the grant order effectively
  random.  This unfairness is what reorders sender threads between sequence
  number assignment and network injection, producing the paper's massive
  out-of-sequence message counts (Table II).  ``fairness='fair'`` is
  available for ablation studies.
* **owner-migration penalty** -- when a lock's protected data structure is
  touched by a different core than last time, the working set migrates
  between caches.  ``migration_ns`` charges that penalty whenever the new
  holder differs from the previous holder.  This is the mechanism behind
  the paper's observation that *concurrent progress* triples matching time
  (Table II): the match lock migrates on nearly every message, whereas a
  serial progress engine keeps the matching structures hot in one core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simthread.errors import SimThreadError
from repro.simthread.scheduler import SUSPEND, Delay


@dataclass(frozen=True)
class LockCosts:
    """Virtual-time costs (ns) for one lock instance.

    ``contended_per_waiter_ns`` models the futex convoy: when a mutex is
    handed off under load, the wakeup path (scheduler activity, cache-line
    storms among spinners) costs more the more threads are queued.  This
    is the pathology that makes a single shared instance collapse as
    thread counts grow (paper Fig. 3a, red lines) while try-lock-based
    paths -- which never enqueue -- stay flat.
    """

    acquire_ns: int = 25
    contended_ns: int = 180
    release_ns: int = 15
    tryfail_ns: int = 35
    migration_ns: int = 0
    contended_per_waiter_ns: int = 0


class SimLock:
    """Mutual-exclusion lock for simulated threads.

    :meth:`acquire` may park, so it is a generator driven with ``yield
    from``.  :meth:`try_acquire` and :meth:`release` never park: each is
    a plain call that does its work and returns the one command the
    caller then yields (``yield lock.release()``).
    """

    __slots__ = ("_sched", "costs", "name", "fairness", "_owner", "_last_owner",
                 "_waiters", "acquisitions", "contended_acquisitions", "migrations",
                 "tryfails", "_handoff_queue_depth", "wait_time_ns", "hold_time_ns",
                 "_held_since", "_acquire_delay", "_contended_delay",
                 "tryfail_delay", "_release_delay", "_simple")

    def __init__(self, sched, costs: LockCosts | None = None, name: str = "lock",
                 fairness: str = "unfair"):
        if fairness not in ("unfair", "fair"):
            raise ValueError(f"fairness must be 'unfair' or 'fair', got {fairness!r}")
        self._sched = sched
        self.costs = costs or LockCosts()
        self.name = name
        self.fairness = fairness
        # Costs are frozen and never reassigned after construction, so the
        # constant-cost Delay records can be allocated once and yielded
        # repeatedly (the scheduler only reads ns/jitter; per-event jitter
        # comes from the rng, not the record).  _simple marks the common
        # config with no migration/convoy modeling, where the contended
        # cost is constant too.
        c = self.costs
        self._acquire_delay = Delay(c.acquire_ns)
        self._contended_delay = Delay(c.contended_ns)
        #: the command a failed :meth:`try_acquire` returns, and only it
        self.tryfail_delay = Delay(c.tryfail_ns)
        self._release_delay = Delay(c.release_ns)
        self._simple = not (c.migration_ns or c.contended_per_waiter_ns)
        self._owner = None
        self._last_owner = None
        self._waiters: list = []
        self._handoff_queue_depth = 0
        self._held_since = 0
        # statistics (inspected by tests, the SPC layer and repro.obs)
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.migrations = 0
        self.tryfails = 0
        #: cumulative virtual time threads spent parked on this lock
        self.wait_time_ns = 0
        #: cumulative virtual time the lock was held
        self.hold_time_ns = 0
        # creation-order registry for per-lock observability (profiler)
        register = getattr(sched, "register_lock", None)
        if register is not None:
            register(self)

    # ------------------------------------------------------------------
    def _migration_cost(self, thread) -> int:
        if self.costs.migration_ns and self._last_owner is not None \
                and self._last_owner is not thread:
            self.migrations += 1
            trc = self._sched.tracer
            if trc.enabled:
                trc.lock_migration(self, thread)
            return self.costs.migration_ns
        return 0

    # ------------------------------------------------------------------
    def acquire(self):
        """Generator: block until the lock is owned by the calling thread."""
        sched = self._sched
        me = sched.current
        trc = sched.tracer
        if self._owner is None:
            self._owner = me
            self._held_since = sched._now
            self.acquisitions += 1
            if trc.enabled:
                trc.lock_acquired(self, me, contended=False)
            if self._simple:
                yield self._acquire_delay
            else:
                yield Delay(self.costs.acquire_ns + self._migration_cost(me))
            return
        parked_at = sched._now
        if trc.enabled:
            trc.lock_wait_begin(self, me, len(self._waiters) + 1)
        self._waiters.append(me)
        yield SUSPEND
        # The releasing thread transferred ownership to us before waking us.
        if self._owner is not me:  # pragma: no cover - invariant guard
            raise SimThreadError(f"lock {self.name}: woken without ownership")
        self.acquisitions += 1
        self.contended_acquisitions += 1
        self.wait_time_ns += sched._now - parked_at
        if trc.enabled:
            trc.lock_wait_end(self, me)
        if self._simple:
            yield self._contended_delay
        else:
            convoy = self.costs.contended_per_waiter_ns * self._handoff_queue_depth
            yield Delay(self.costs.contended_ns + convoy + self._migration_cost(me))

    def try_acquire(self):
        """Attempt the lock without blocking; returns the command to yield.

        Success takes the lock now and returns its acquire cost; failure
        returns :attr:`tryfail_delay`, which the caller tests by identity::

            cmd = lock.try_acquire()
            yield cmd
            if cmd is lock.tryfail_delay:
                ...  # another thread holds it
        """
        sched = self._sched
        me = sched.current
        if self._owner is None:
            self._owner = me
            self._held_since = sched._now
            self.acquisitions += 1
            trc = sched.tracer
            if trc.enabled:
                trc.lock_acquired(self, me, contended=False)
            if self._simple:
                return self._acquire_delay
            return Delay(self.costs.acquire_ns + self._migration_cost(me))
        self.tryfails += 1
        trc = sched.tracer
        if trc.enabled:
            trc.lock_tryfail(self, me)
        return self.tryfail_delay

    def release(self):
        """Release, granting directly to one waiter if any; returns the
        release cost for the caller to yield."""
        sched = self._sched
        me = sched.current
        if self._owner is not me:
            raise SimThreadError(
                f"lock {self.name}: release by non-owner "
                f"{me.name if me else None} (owner={self._owner})")
        self._last_owner = me
        self.hold_time_ns += sched._now - self._held_since
        trc = sched.tracer
        if trc.enabled:
            trc.lock_released(self, me)
        waiters = self._waiters
        if waiters:
            if len(waiters) > 1 and self.fairness == "unfair":
                idx = sched.rng.randrange(len(waiters))
            else:
                idx = 0
            winner = waiters.pop(idx)
            self._owner = winner
            self._held_since = sched._now
            self._handoff_queue_depth = len(waiters)
            if trc.enabled:
                trc.lock_acquired(self, winner, contended=True)
            sched.wake(winner)
        else:
            self._owner = None
        return self._release_delay

    def __repr__(self):  # pragma: no cover - debug aid
        state = f"held by {self._owner.name}" if self._owner else "free"
        return f"<SimLock {self.name} {state}, {len(self._waiters)} waiting>"


class SimBarrier:
    """Reusable barrier for a fixed party count."""

    __slots__ = ("_sched", "parties", "_arrived", "_waiters", "generation")

    def __init__(self, sched, parties: int):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self._sched = sched
        self.parties = parties
        self._arrived = 0
        self._waiters: list = []
        self.generation = 0

    def wait(self):
        """Generator: park until ``parties`` threads have arrived."""
        self._arrived += 1
        if self._arrived == self.parties:
            self._arrived = 0
            self.generation += 1
            waiters, self._waiters = self._waiters, []
            for w in waiters:
                self._sched.wake(w)
            yield Delay(40)
            return
        self._waiters.append(self._sched.current)
        yield SUSPEND
        yield Delay(40)
