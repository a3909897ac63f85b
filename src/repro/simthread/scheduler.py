"""Virtual-time discrete-event scheduler driving simulated threads.

The scheduler keeps two event heaps keyed by ``(virtual_time, tick)``
where ``tick`` is one monotonically increasing tie-breaker they share,
so runs are fully deterministic for a given seed.  Randomness (cost jitter,
unfair lock grants) flows exclusively through the scheduler's seeded
``random.Random``.

Simulated threads communicate with the scheduler by yielding *commands*:

``Delay(ns)``
    Resume this thread after ``ns`` nanoseconds of virtual time (optionally
    jittered to model run-to-run hardware variation).

``YieldNow()``
    Cooperative yield: resume at the same virtual time, after every event
    already queued for this instant.

``SUSPEND``
    Park the thread.  Some other component (a lock release, a barrier's
    last arrival) is responsible for calling :meth:`Scheduler.wake` later.

Anything more elaborate (locks, barriers, atomics) is built on top of these
three primitives in sibling modules.

Hot-loop design (see ``docs/PERFORMANCE.md``)
---------------------------------------------
Event records are bare tuples: the *run queue* ``_ready`` holds ``(when,
tick, thread)`` (:meth:`spawn`, ``Delay``, ``YieldNow``, :meth:`wake`) and
the *timer queue* ``_calls`` holds ``(when, tick, (fn, args))``
(:meth:`call_at`).  Each step runs the earlier top; ticks are unique, so
the order is exactly that of one merged heap, while a spinning thread
sifts only through its runnable peers.  The loop itself comes in two
interchangeable bodies:

* :meth:`_run_fast` -- the default.  Chosen when no stats, sampler,
  watchdog or event/time bound is installed; everything is bound to
  locals, the per-command branches are inlined (``Delay`` first), and a
  thread that yields ``Delay`` or ``YieldNow`` is re-armed in place.
* :meth:`_run_full` -- the instrumented body.  Identical event semantics
  plus the per-event ``is not None`` hooks (sampler, watchdog,
  :class:`~repro.simthread.stats.SchedStats` counters, ``max_time`` /
  ``max_events`` bounds).

:meth:`run` picks the body per call, which hoists every observability
branch out of the uninstrumented loop entirely.  Both bodies consume the
tick counter and the rng in the same order, so the schedule -- and every
deterministic artifact derived from it -- is byte-identical regardless of
which body ran.  Installing a sampler/watchdog/stats *while the loop is
running* is not supported (install before :meth:`run`, as all in-tree
callers do).
"""

from __future__ import annotations

import heapq
import itertools
import random

from repro.obs.tracer import NULL_TRACER
from repro.simthread.errors import DeadlockError, SimThreadError
from repro.simthread.thread import SimThread


class Delay:
    """Command: advance this thread's clock by ``ns`` nanoseconds.

    ``jitter=True`` (the default) perturbs the cost by the scheduler's
    configured relative jitter, modeling cycle-level timing noise.  Pass
    ``jitter=False`` for quantities that must be exact (e.g. a calibrated
    wire latency whose jitter is modeled separately).

    Delay records are immutable in practice: the scheduler only reads
    ``ns``/``jitter``, so hot paths may allocate one per constant cost and
    yield it repeatedly (the sync primitives and the MPI layer do).
    """

    __slots__ = ("ns", "jitter")

    def __init__(self, ns: int, jitter: bool = True):
        self.ns = ns
        self.jitter = jitter

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Delay({self.ns}, jitter={self.jitter})"


class YieldNow:
    """Command: reschedule at the current instant, after queued peers."""

    __slots__ = ()


class _Suspend:
    """Command singleton: park the thread until an explicit wake."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debug aid
        return "SUSPEND"


SUSPEND = _Suspend()


class Scheduler:
    """Deterministic virtual-time event loop for simulated threads.

    Parameters
    ----------
    seed:
        Seed for the run's single random stream.  Two runs with the same
        seed and the same spawned generators produce identical schedules.
    jitter:
        Relative timing noise applied to jitterable :class:`Delay` costs,
        e.g. ``0.05`` perturbs each cost uniformly within +/-5%.  Zero
        disables noise entirely.
    """

    def __init__(self, seed: int = 0, jitter: float = 0.05):
        self._now: int = 0
        self.rng = random.Random(seed)
        self.jitter = float(jitter)
        self.events_processed: int = 0
        self.current: SimThread | None = None
        #: observability hook; a no-op NullTracer unless a
        #: :class:`repro.obs.tracer.Tracer` is attached.
        self.tracer = NULL_TRACER
        self._ready: list = []
        self._calls: list = []
        self._tick = itertools.count()
        self._threads: list[SimThread] = []
        self._locks: list = []
        self._nparked = 0
        self._failure: BaseException | None = None
        self._sampler = None
        self._watchdog = None
        self._stats = None

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds (read-only).

        Only the event loop advances this; components read it to stamp
        events and compute durations.  Tests and the tracer should use
        this property rather than reaching into the event queues.
        """
        return self._now

    def set_sampler(self, sampler) -> None:
        """Install (or, with ``None``, remove) a metrics sampler.

        The sampler must expose ``due`` (next virtual time it wants to
        run, ns) and ``sample(now)``; the event loop invokes it whenever
        virtual time reaches ``due``.  Used by
        :class:`repro.obs.metrics.MetricsRegistry` for interval time-series
        without keeping the event queues artificially alive.  Install
        before :meth:`run`; the loop body is selected per run() call.
        """
        self._sampler = sampler

    def set_stats(self, stats) -> None:
        """Install (or, with ``None``, remove) a :class:`SchedStats`.

        When present (see :mod:`repro.simthread.stats`), the event loop
        tallies heap traffic, generator steps and per-kind dispatch
        counts into it.  The counters are deterministic per seed; with
        no stats (and no sampler/watchdog) installed the loop runs the
        branch-free fast body, so unprofiled runs pay nothing at all.
        """
        self._stats = stats

    @property
    def stats(self):
        """The installed :class:`SchedStats`, or None when not profiling."""
        return self._stats

    @property
    def locks(self) -> tuple:
        """Every SimLock created against this scheduler, creation order."""
        return tuple(self._locks)

    def register_lock(self, lock) -> None:
        """Record a lock for per-lock observability (called by SimLock)."""
        self._locks.append(lock)

    def set_watchdog(self, watchdog) -> None:
        """Install (or, with ``None``, remove) a no-progress watchdog.

        Same event-loop contract as :meth:`set_sampler`: the watchdog
        exposes ``due`` and ``check(now)``, and ``check`` may raise (a
        :class:`~repro.simthread.errors.StallError`) to abort the run.
        See :class:`repro.simthread.watchdog.Watchdog`.
        """
        self._watchdog = watchdog

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------
    def spawn(self, gen, name: str | None = None) -> SimThread:
        """Register a generator as a new simulated thread, runnable now."""
        if not hasattr(gen, "send"):
            raise SimThreadError(f"spawn() needs a generator, got {type(gen).__name__}")
        if self._stats is not None:
            self._stats.spawns += 1
        thread = SimThread(self, gen, name or f"thread-{len(self._threads)}")
        self._threads.append(thread)
        self._push(thread, self._now, None)
        return thread

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, thread: SimThread, when: int, value) -> None:
        thread._resume_value = value
        thread._parked = False
        if self._stats is not None:
            self._stats.heap_pushes += 1
        heapq.heappush(self._ready, (when, next(self._tick), thread))

    def wake(self, thread: SimThread, value=None, delay: int = 0) -> None:
        """Unpark a suspended thread, resuming it ``delay`` ns from now.

        ``value`` becomes the result of the ``yield SUSPEND`` expression in
        the thread body.  A negative ``delay`` is an error: the fast loop
        relies on no thread being queued before the one that is stepping.
        """
        if delay < 0:
            raise SimThreadError(f"cannot wake {thread.name} in the past ({delay} ns)")
        if thread.done:
            raise SimThreadError(f"cannot wake finished thread {thread.name}")
        if not thread._parked:
            raise SimThreadError(f"thread {thread.name} is not parked")
        self._nparked -= 1
        if self._stats is not None:
            self._stats.wakes += 1
        self._push(thread, self._now + delay, value)

    def call_at(self, when: int, fn, *args) -> None:
        """Run a plain callback (not a thread) at virtual time ``when``.

        Used by the network model to deliver messages: the callback runs
        with ``self.now == when`` and must not yield.  The callback is
        stored as a bare ``(fn, args)`` tuple on the timer queue, apart
        from runnable threads; it draws its tick from the same counter, so
        it runs before a thread due at the same instant exactly when it
        was scheduled first.  No wrapper object is allocated per event.
        """
        if self._stats is not None:
            self._stats.heap_pushes += 1
        heapq.heappush(self._calls, (when, next(self._tick), (fn, args)))

    def jittered(self, ns: int) -> int:
        """Apply the configured relative jitter to a cost in nanoseconds."""
        if ns <= 0:
            return 0
        if self.jitter:
            return max(0, int(ns * (1.0 + self.jitter * (2.0 * self.rng.random() - 1.0))))
        return ns

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_time: int | None = None, max_events: int | None = None) -> int:
        """Drain both event queues; return the final virtual time in ns.

        Dispatches to the uninstrumented fast body when possible (no
        stats/sampler/watchdog and no bounds) and to the full body
        otherwise; both produce the same schedule.

        Raises
        ------
        DeadlockError
            If the queues empty while threads remain parked.
        Exception
            Any exception escaping a thread body is re-raised here (the
            simulation is aborted at that point).
        """
        if (max_time is None and max_events is None and self._stats is None
                and self._sampler is None and self._watchdog is None):
            self._run_fast()
        else:
            self._run_full(max_time, max_events)
        if max_time is None and self._nparked:
            parked = [t for t in self._threads if t._parked and not t.done]
            if parked:
                raise DeadlockError(parked)
        return self._now

    def _run_fast(self) -> None:
        """Uninstrumented loop body: everything in locals, branches inlined.

        Event semantics are identical to :meth:`_run_full` with every
        hook absent; the tick counter and rng are consumed in the same
        order, keeping the schedule byte-identical.  A thread steps from
        the top of the run queue: what a step queues has a later tick
        and no earlier time, so ``Delay`` and ``YieldNow`` re-arm it
        with one ``heapreplace``; only parking, returning or raising
        pops it.  ``current`` is cleared before a callback and on exit.
        """
        ready = self._ready
        calls = self._calls
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        tick = self._tick.__next__
        rng_random = self.rng.random
        jitter = self.jitter
        now = self._now
        events = self.events_processed
        try:
            while True:
                if calls:
                    if ready and ready[0] < calls[0]:
                        when, _, item = ready[0]
                    else:
                        when, _, (fn, args) = heappop(calls)
                        if when != now:
                            now = when
                            self._now = when
                        events += 1
                        self.current = None
                        fn(*args)
                        continue
                elif ready:
                    when, _, item = ready[0]
                else:
                    break
                if when != now:  # batch same-instant wakeups: one store per instant
                    now = when
                    self._now = when
                events += 1
                value = item._resume_value
                if value is not None:
                    item._resume_value = None
                self.current = item
                try:
                    cmd = item._send(value)
                except StopIteration as stop:
                    heappop(ready)
                    item._finish(stop.value)
                    continue
                except Exception as exc:
                    heappop(ready)
                    item._abort(exc)
                    raise
                except BaseException:
                    heappop(ready)
                    raise
                cls = cmd.__class__
                if cls is Delay:  # by far the most frequent command
                    ns = cmd.ns
                    if cmd.jitter:
                        if ns <= 0:
                            ns = 0
                        elif jitter:
                            ns = int(ns * (1.0 + jitter * (2.0 * rng_random() - 1.0)))
                            if ns < 0:
                                ns = 0
                    heapreplace(ready, (when + ns, tick(), item))
                elif cmd is SUSPEND:
                    heappop(ready)
                    item._parked = True
                    self._nparked += 1
                elif cls is YieldNow:
                    heapreplace(ready, (when, tick(), item))
                else:
                    heappop(ready)
                    exc = SimThreadError(
                        f"thread {item.name} yielded unknown command {cmd!r}")
                    item._abort(exc)
                    raise exc
        finally:
            self.current = None
            self.events_processed = events

    def _run_full(self, max_time: int | None, max_events: int | None) -> None:
        """Instrumented loop body: sampler/watchdog/stats hooks + bounds.

        Under ``max_time`` the loop peeks at the earlier top and stops
        without popping it, so a paused run resumes in the same order.
        """
        ready = self._ready
        calls = self._calls
        stats = self._stats
        while ready or calls:
            queue = calls if calls and (not ready or calls[0] < ready[0]) else ready
            if max_time is not None and queue[0][0] > max_time:
                break
            when, _, item = heapq.heappop(queue)
            if stats is not None:
                stats.heap_pops += 1
            self._now = when
            self.events_processed += 1
            sampler = self._sampler
            if sampler is not None and when >= sampler.due:
                sampler.sample(when)
            watchdog = self._watchdog
            if watchdog is not None and when >= watchdog.due:
                watchdog.check(when)
            if max_events is not None and self.events_processed > max_events:
                raise SimThreadError(f"exceeded max_events={max_events} (runaway simulation?)")
            if queue is calls:
                if stats is not None:
                    stats.events_callback += 1
                item[0](*item[1])
                continue
            self._step(item)
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure

    def _step(self, thread: SimThread) -> None:
        value = thread._resume_value
        thread._resume_value = None
        stats = self._stats
        if stats is not None:
            stats.gen_steps += 1
        self.current = thread
        try:
            try:
                cmd = thread._send(value)
            except StopIteration as stop:
                thread._finish(stop.value)
                return
            except Exception as exc:
                thread._abort(exc)
                self._failure = exc
                return
        finally:
            self.current = None

        cls = cmd.__class__
        if cls is Delay:
            ns = self.jittered(cmd.ns) if cmd.jitter else cmd.ns
            if stats is not None:
                stats.events_delay += 1
            self._push(thread, self._now + ns, None)
        elif cmd is SUSPEND:
            thread._parked = True
            self._nparked += 1
            if stats is not None:
                stats.events_suspend += 1
        elif cls is YieldNow:
            if stats is not None:
                stats.events_yield += 1
            self._push(thread, self._now, None)
        else:
            exc = SimThreadError(f"thread {thread.name} yielded unknown command {cmd!r}")
            thread._abort(exc)
            self._failure = exc
