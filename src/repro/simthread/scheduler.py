"""Virtual-time discrete-event scheduler driving simulated threads.

The scheduler keeps two event heaps keyed by ``(virtual_time, tick)``
where ``tick`` is one monotonically increasing tie-breaker they share,
so runs are fully deterministic for a given seed.  Randomness (cost jitter,
unfair lock grants) flows exclusively through the scheduler's seeded
``random.Random``.

Simulated threads communicate with the scheduler by yielding *commands*:

``Delay(ns)``
    Resume this thread after ``ns`` nanoseconds of virtual time (optionally
    jittered to model run-to-run hardware variation).  ``Delay(0)`` is the
    cooperative yield: the thread resumes at the same instant, after every
    event already queued for it.

``SUSPEND``
    Park the thread.  Some other component (a lock release, a barrier's
    last arrival) is responsible for calling :meth:`Scheduler.wake` later.

Anything more elaborate (locks, barriers) is built on top of these two
commands in sibling modules.

Hot-loop design (see ``docs/PERFORMANCE.md``)
---------------------------------------------
Event records are bare tuples: the *run queue* ``_ready`` holds ``(when,
tick, thread)`` (:meth:`spawn`, ``Delay``, :meth:`wake`) and the *timer
queue* ``_calls`` holds ``(when, tick, (fn, args))`` (:meth:`call_at`).
Each step runs the earlier top; ticks are unique, so the order is exactly
that of one merged heap, while a spinning thread sifts only through its
runnable peers.  :meth:`run` is the one loop body: everything is bound
to locals, ``Delay`` is dispatched first, and a thread that yields one
is re-armed in place with one ``heapreplace``.

Everything optional rides the branch that runs only when virtual time
moves: the ``max_time`` bound, the metrics sampler and the watchdog are
folded into one *horizon*, the last instant the loop may reach without
looking at them, so advancing the clock within it costs one int
compare.  A :class:`~repro.simthread.stats.SchedStats` costs nothing
per event: the loop tallies callbacks, parks and thread ends in locals
(none on the ``Delay`` path) and derives every counter from them when
the run ends.  Install a sampler, watchdog or stats before
:meth:`run`; installing one while the loop is running is not
supported.
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


class _Suspend:
    """Command singleton: park the thread until an explicit wake."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debug aid
        return "SUSPEND"


SUSPEND = _Suspend()

#: the horizon when no bound or hook is installed, later than any run;
#: ``-_NEVER`` is earlier than any event
_NEVER = 1 << 62


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
        self._sampler = None
        self._watchdog = None
        self._stats = None
        #: (events, threads, parked, timers) when the stats last caught up
        self._stats_mark = None

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
        before :meth:`run`: the loop reads ``due`` only when it starts and
        after each hook call, and ``sample`` must move ``due`` past
        ``now``.
        """
        self._sampler = sampler

    def set_stats(self, stats) -> None:
        """Install (or, with ``None``, remove) a :class:`SchedStats`.

        When present (see :mod:`repro.simthread.stats`), each
        :meth:`run` adds the heap traffic, generator steps and per-kind
        dispatch counts since the stats were installed or last filled:
        the counts are complete whenever ``run()`` has returned.  They
        are deterministic per seed and derived when the run ends, so
        the loop does the same work per event with or without them.
        """
        self._stats = stats
        self._stats_mark = (self.events_processed, len(self._threads),
                            self._nparked, len(self._calls))

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
        exposes ``due`` and ``check(now)``, and ``check`` either moves
        ``due`` past ``now`` or raises (a
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
        heapq.heappush(self._ready, (when, next(self._tick), thread))

    def wake(self, thread: SimThread, value=None, delay: int = 0) -> None:
        """Unpark a suspended thread, resuming it ``delay`` ns from now.

        ``value`` becomes the result of the ``yield SUSPEND`` expression in
        the thread body.  A negative ``delay`` is an error: the loop
        relies on no thread being queued before the one that is stepping.
        """
        if delay < 0:
            raise SimThreadError(f"cannot wake {thread.name} in the past ({delay} ns)")
        if thread.done:
            raise SimThreadError(f"cannot wake finished thread {thread.name}")
        if not thread._parked:
            raise SimThreadError(f"thread {thread.name} is not parked")
        self._nparked -= 1
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
        heapq.heappush(self._calls, (when, next(self._tick), (fn, args)))

    def jittered(self, ns: int) -> int:
        """Apply the configured relative jitter to a cost in nanoseconds.

        The same formula, and the same rng draw, as :meth:`run` applies
        inline to a jittered ``Delay``.
        """
        if ns <= 0:
            return 0
        if self.jitter:
            return max(0, int(ns * (1.0 + self.jitter * (2.0 * self.rng.random() - 1.0))))
        return ns

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_time: int | None = None) -> int:
        """Drain both event queues; return the final virtual time in ns.

        With ``max_time`` the run pauses before the first event later
        than it and leaves that event queued, so a later ``run()``
        resumes in the same order.  A thread steps from the top of the
        run queue: what a step queues has a later tick and no earlier
        time, so a ``Delay`` re-arms it with one ``heapreplace``; only
        parking, returning or raising pops it.  ``current`` is cleared
        before a callback or a hook and on exit.

        Raises
        ------
        DeadlockError
            If the queues empty while threads remain parked (not checked
            under ``max_time``).
        Exception
            Any exception escaping a thread body, a callback or a hook is
            re-raised here (the simulation is aborted at that point).
        """
        ready = self._ready
        calls = self._calls
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        tick = self._tick.__next__
        rng_random = self.rng.random
        jitter = self.jitter
        events = self.events_processed
        callbacks = parks = ends = 0   # the SchedStats tallies
        # the first event takes the time branch and crosses the horizon,
        # so a bound or hook that is due already is seen
        now = None
        horizon = -_NEVER
        try:
            while True:
                if calls:
                    if ready and ready[0] < calls[0]:
                        when, _, item = ready[0]
                    else:
                        when, tk, (fn, args) = heappop(calls)
                        if when != now:
                            if when > horizon:
                                horizon = self._cross(when, max_time,
                                                      (when, tk, (fn, args)))
                                if horizon is None:
                                    break
                            now = when
                            self._now = when
                        events += 1
                        callbacks += 1
                        self.current = None
                        fn(*args)
                        continue
                elif ready:
                    when, _, item = ready[0]
                else:
                    break
                if when != now:  # batch same-instant wakeups: one store per instant
                    if when > horizon:
                        horizon = self._cross(when, max_time, None)
                        if horizon is None:
                            break
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
                    ends += 1
                    item._finish(stop.value)
                    continue
                except Exception as exc:
                    heappop(ready)
                    ends += 1
                    item._abort(exc)
                    raise
                except BaseException:
                    heappop(ready)
                    ends += 1
                    raise
                if cmd.__class__ is Delay:  # by far the most frequent command
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
                    parks += 1
                    item._parked = True
                    self._nparked += 1
                else:
                    heappop(ready)
                    ends += 1
                    exc = SimThreadError(
                        f"thread {item.name} yielded unknown command {cmd!r}")
                    item._abort(exc)
                    raise exc
        finally:
            self.current = None
            self.events_processed = events
            stats = self._stats
            if stats is not None:
                self._fill(stats, callbacks, parks, ends)
        if max_time is None and self._nparked:
            parked = [t for t in self._threads if t._parked and not t.done]
            if parked:
                raise DeadlockError(parked)
        return self._now

    def _cross(self, when: int, max_time: int | None, popped):
        """Virtual time is about to pass the horizon, to ``when``.

        Returns ``None`` to pause before ``when`` (a callback the loop
        already ``popped`` goes back unchanged, so its order is exact).
        Otherwise moves the clock, runs the sampler and then the watchdog
        if they are due, and returns the next horizon: the instant before
        a hook is due, or ``max_time``.  Both hooks move ``due`` past
        ``now``, so the first event at or after ``due`` always advances
        virtual time and crosses: each hook runs at exactly that event.
        """
        if max_time is not None and when > max_time:
            if popped is not None:
                heapq.heappush(self._calls, popped)
            return None
        self._now = when
        self.current = None
        horizon = _NEVER if max_time is None else max_time
        sampler = self._sampler
        if sampler is not None:
            if when >= sampler.due:
                sampler.sample(when)
            horizon = min(horizon, sampler.due - 1)
        watchdog = self._watchdog
        if watchdog is not None:
            if when >= watchdog.due:
                watchdog.check(when)
            horizon = min(horizon, watchdog.due - 1)
        return horizon

    def _fill(self, stats, callbacks: int, parks: int, ends: int) -> None:
        """Add what happened since the stats' last mark to ``stats``.

        ``callbacks``, ``parks`` and ``ends`` (returns and raises; a
        rejected command is a raise) are the run's own tallies; the
        scheduler's event, thread, parked and timer counts give the rest.
        Every other step yielded a ``Delay`` and re-armed its thread.
        """
        events0, threads0, parked0, timers0 = self._stats_mark
        mark = self._stats_mark = (self.events_processed, len(self._threads),
                                   self._nparked, len(self._calls))
        events = mark[0] - events0
        steps = events - callbacks
        delays = steps - parks - ends
        spawns = mark[1] - threads0
        wakes = parks - (mark[2] - parked0)
        stats.events_delay += delays
        stats.events_suspend += parks
        stats.events_callback += callbacks
        stats.heap_pushes += (delays + spawns + wakes
                              + callbacks + mark[3] - timers0)
        stats.heap_pops += events
        stats.gen_steps += steps
        stats.wakes += wakes
        stats.spawns += spawns
