"""Progress engines: serial (traditional) and concurrent (Algorithm 2).

The progress engine drains completion queues and dispatches events to the
upper layer (request completion, matching).  The two designs:

* :class:`SerialProgress` -- Open MPI's traditional scheme: a global
  try-lock admits a single thread; the holder sweeps every instance.
  A thread that fails the try-lock ends its round at once with zero
  completions (and backs off), funneling all extraction through one
  thread.
* :class:`ConcurrentProgress` -- the paper's Algorithm 2: no global lock.
  A thread first try-locks and progresses its *dedicated* instance; only
  if that produced no completion does it scan other instances via
  round-robin try-locks, stopping at the first instance that yields
  completions.  A failed try-lock means someone else is progressing that
  instance, so the thread moves on -- the try-lock-as-information idiom of
  section III-C.  The fallback scan guarantees orphaned instances (dead
  threads, threads > instances) are still progressed eventually.

A waiting thread spins in its engine's ``poll`` loop, which runs rounds
until the caller's condition holds (a request completed, a flush's ops
acked) and pauses between them; ``progress()`` is one round of it.

Both engines poll *and dispatch* under the CRI lock -- completion
callbacks chain inline from the BTL progress loop as in btl/uct -- while
the matching engine takes its own per-communicator lock inside the
dispatch, so Figure 1's two-stage progress->match pipeline is preserved.
"""

from __future__ import annotations

from repro.core.config import CONCURRENT, SERIAL, CostModel, ThreadingConfig
from repro.core.pool import CRIPool
from repro.simthread.scheduler import Delay
from repro.simthread.sync import SimLock


class _ProgressBase:
    """Shared instance-progress helper and the one-round entry point.

    Each engine has one :meth:`poll` loop holding its one round body.
    A thread waiting for a request or a flush parks in that loop for the
    whole wait, so each event resumes the frames worker -> wait ->
    ``poll`` and no generator is built per round.

    ``post_round`` is an optional hook run at the end of every progress
    round (outside any progress/instance lock): an object whose
    ``pending`` is truthy while work is queued and whose ``flush()``
    generator does that work.  The MPI layer passes its rendezvous
    manager, whose queued protocol replies (CTS/DATA) cannot be sent from
    inside the matching engine.  An empty queue builds no generator.
    """

    def __init__(self, sched, pool: CRIPool, costs: CostModel, dispatch,
                 post_round=None):
        self.sched = sched
        self.pool = pool
        self.costs = costs
        self.dispatch = dispatch
        self.post_round = post_round
        self.calls = 0
        self.denied = 0
        # flattened frozen costs + reusable Delays for the (very common)
        # empty-progress round and the pause between two polling rounds
        self._cq_poll_ns = costs.cq_poll_ns
        self._cq_event_ns = costs.cq_event_ns
        self._empty_delay = Delay(costs.progress_empty_ns)
        self._poll_delay = Delay(costs.wait_poll_ns)

    def progress(self):
        """Generator: one progress-engine call; returns its completions.

        :meth:`poll` run for exactly one round.
        """
        return self.poll(None, None)

    def _progress_instance(self, cri):
        """Generator: try to progress one CRI whose CQ is not empty.

        Returns the number of completions, or ``None`` if the instance's
        try-lock was held (another thread is progressing it).

        The engines skip an empty CQ without calling this (no lock, no
        generator): ``cq.pending`` is a single load of the CQ's queue, the
        standard cheap "anything pending?" hint, so sweeping many idle
        instances costs (almost) nothing.  The sweep-level cost
        of an entirely idle pass is charged once by the engines.
        """
        lock = cri.lock
        cmd = lock.try_acquire()
        yield cmd
        if cmd is lock.tryfail_delay:
            return None
        cri.progress_calls += 1
        events = cri.cq.poll()
        if not events:
            yield self._empty_delay
            yield lock.release()
            return 0
        yield Delay(self._cq_poll_ns + len(events) * self._cq_event_ns)
        # Dispatch runs with the instance lock held: completion callbacks
        # (request completion, PML matching) chain inline from the BTL
        # progress loop, exactly as in btl/uct.  This keeps each CQ's
        # batch order intact even when several threads take turns
        # progressing one shared instance.
        count = 0
        for ev in events:
            count += yield from self.dispatch(ev)
        yield lock.release()
        return count


class SerialProgress(_ProgressBase):
    """Single thread in the progress engine at a time (pre-paper design)."""

    def __init__(self, sched, pool, costs, dispatch, post_round=None):
        super().__init__(sched, pool, costs, dispatch, post_round)
        self.global_lock = SimLock(sched, costs.lock_costs(),
                                   name=f"p{pool.rank}/opal-progress")

    def poll(self, done, backoff):
        """Generator: progress rounds until ``done()`` holds.

        ``done`` is a zero-argument callable, tested after each round
        and again after each pause; the caller polls only while it is
        false.  The pause is ``backoff`` after a round that completed
        nothing and the ``wait_poll_ns`` delay after one that did.  With
        ``done`` None the loop runs exactly one round (:meth:`progress`).
        Returns the last round's completion count.
        """
        sched = self.sched
        trc = sched.tracer
        traced = trc.enabled
        lock = self.global_lock
        tryfail = lock.tryfail_delay
        instances = self.pool.instances
        progress_instance = self._progress_instance
        empty_delay = self._empty_delay
        poll_delay = self._poll_delay
        post_round = self.post_round
        while True:
            self.calls += 1
            cmd = lock.try_acquire()
            yield cmd
            total = 0
            if cmd is tryfail:
                self.denied += 1
                if traced:
                    trc.instant(trc.thread_track(sched.current),
                                "progress.denied", "progress",
                                {"lock": lock.name})
            else:
                if traced:
                    tid = trc.thread_track(sched.current)
                    trc.begin(tid, "progress.sweep", "progress")
                for cri in instances:
                    r = (yield from progress_instance(cri)) if cri.cq.pending else 0
                    if r:
                        total += r
                if total == 0:
                    yield empty_delay
                yield lock.release()
                if traced:
                    trc.end(tid, {"completions": total, "mode": "serial"})
                if post_round is not None and post_round.pending:
                    yield from post_round.flush()
            if done is None or done():
                return total
            yield backoff if total == 0 else poll_delay
            if done():
                return total


class ConcurrentProgress(_ProgressBase):
    """Algorithm 2: dedicated-first, round-robin helper fallback."""

    def poll(self, done, backoff):
        """Generator: progress rounds until ``done()`` holds.

        Same contract as :meth:`SerialProgress.poll`.
        """
        sched = self.sched
        trc = sched.tracer
        traced = trc.enabled
        pool = self.pool
        # the live list: a CRI failover during a yield shrinks it in place
        instances = pool.instances
        tls_get = pool.tls.get
        take_ticket = pool.take_ticket
        ticket_delay = pool.ticket_delay
        progress_instance = self._progress_instance
        empty_delay = self._empty_delay
        poll_delay = self._poll_delay
        post_round = self.post_round
        while True:
            self.calls += 1
            if traced:
                tid = trc.thread_track(sched.current)
                trc.begin(tid, "progress.sweep", "progress")
            cri = tls_get()
            if cri is None or cri.dead:  # first touch or migration
                cri = yield from pool.get_instance_dedicated()
            count = (yield from progress_instance(cri)) if cri.cq.pending else 0
            if count is None:
                self.denied += 1
                count = 0
            if count == 0:
                for _ in range(len(instances)):
                    ticket = take_ticket()
                    yield ticket_delay
                    cri = instances[ticket % len(instances)]
                    r = (yield from progress_instance(cri)) if cri.cq.pending else 0
                    if r is None:
                        self.denied += 1
                    elif r:
                        count = r
                        break
            if count == 0:
                yield empty_delay
            if traced:
                trc.end(tid, {"completions": count, "mode": "concurrent"})
            if post_round is not None and post_round.pending:
                yield from post_round.flush()
            if done is None or done():
                return count
            yield backoff if count == 0 else poll_delay
            if done():
                return count


def make_progress_engine(sched, pool: CRIPool, config: ThreadingConfig,
                         costs: CostModel, dispatch, post_round=None):
    """Build the progress engine selected by ``config.progress``."""
    if config.progress == SERIAL:
        return SerialProgress(sched, pool, costs, dispatch, post_round)
    if config.progress == CONCURRENT:
        return ConcurrentProgress(sched, pool, costs, dispatch, post_round)
    raise ValueError(f"unknown progress mode {config.progress!r}")
