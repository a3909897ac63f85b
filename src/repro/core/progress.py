"""Progress engines: serial (traditional) and concurrent (Algorithm 2).

The progress engine drains completion queues and dispatches events to the
upper layer (request completion, matching).  The two designs:

* :class:`SerialProgress` -- Open MPI's traditional scheme: a global
  try-lock admits a single thread; the holder sweeps every instance.
  Threads that fail the try-lock return immediately with zero completions
  (the caller backs off), funneling all extraction through one thread.
* :class:`ConcurrentProgress` -- the paper's Algorithm 2: no global lock.
  A thread first try-locks and progresses its *dedicated* instance; only
  if that produced no completion does it scan other instances via
  round-robin try-locks, stopping at the first instance that yields
  completions.  A failed try-lock means someone else is progressing that
  instance, so the thread moves on -- the try-lock-as-information idiom of
  section III-C.  The fallback scan guarantees orphaned instances (dead
  threads, threads > instances) are still progressed eventually.

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
    """Shared instance-progress helper.

    ``post_round`` is an optional hook run at the end of every progress
    call (outside any progress/instance lock): an object whose
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
        # flattened frozen costs + a reusable Delay for the (very common)
        # empty-progress round
        self._cq_poll_ns = costs.cq_poll_ns
        self._cq_event_ns = costs.cq_event_ns
        self._empty_delay = Delay(costs.progress_empty_ns)

    def _progress_instance(self, cri):
        """Generator: try to progress one CRI whose CQ is not empty.

        Returns the number of completions, or ``None`` if the instance's
        try-lock was held (another thread is progressing it).

        The engines skip an empty CQ without calling this (no lock, no
        generator): emptiness is a single cached load of the CQ's producer
        index, the standard cheap "anything pending?" hint, so sweeping
        many idle instances costs (almost) nothing.  The sweep-level cost
        of an entirely idle pass is charged once by the engines.
        """
        ok = yield from cri.lock.try_acquire()
        if not ok:
            return None
        cri.progress_calls += 1
        events = cri.cq.poll()
        if not events:
            yield self._empty_delay
            yield from cri.lock.release()
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
        yield from cri.lock.release()
        return count


class SerialProgress(_ProgressBase):
    """Single thread in the progress engine at a time (pre-paper design)."""

    def __init__(self, sched, pool, costs, dispatch, post_round=None):
        super().__init__(sched, pool, costs, dispatch, post_round)
        self.global_lock = SimLock(sched, costs.lock_costs(),
                                   name=f"p{pool.rank}/opal-progress")

    def progress(self):
        """Generator: one progress-engine call; returns completion count."""
        self.calls += 1
        trc = self.sched.tracer
        traced = trc.enabled
        ok = yield from self.global_lock.try_acquire()
        if not ok:
            self.denied += 1
            if traced:
                trc.instant(trc.thread_track(self.sched.current),
                            "progress.denied", "progress",
                            {"lock": self.global_lock.name})
            return 0
        if traced:
            tid = trc.thread_track(self.sched.current)
            trc.begin(tid, "progress.sweep", "progress")
        total = 0
        for cri in self.pool.instances:
            r = 0 if cri.cq.empty else (yield from self._progress_instance(cri))
            if r:
                total += r
        if total == 0:
            yield self._empty_delay
        yield from self.global_lock.release()
        if traced:
            trc.end(tid, {"completions": total, "mode": "serial"})
        if self.post_round is not None and self.post_round.pending:
            yield from self.post_round.flush()
        return total


class ConcurrentProgress(_ProgressBase):
    """Algorithm 2: dedicated-first, round-robin helper fallback."""

    def progress(self):
        """Generator: one progress-engine call; returns completion count."""
        self.calls += 1
        trc = self.sched.tracer
        traced = trc.enabled
        if traced:
            tid = trc.thread_track(self.sched.current)
            trc.begin(tid, "progress.sweep", "progress")
        pool = self.pool
        # the live list: a CRI failover during a yield shrinks it in place
        instances = pool.instances
        cri = pool.tls.get()
        if cri is None or cri.dead:  # first touch or migration
            cri = yield from pool.get_instance_dedicated()
        count = 0 if cri.cq.empty else (yield from self._progress_instance(cri))
        if count is None:
            self.denied += 1
            count = 0
        if count == 0:
            take_ticket = pool.take_ticket
            ticket_delay = pool.ticket_delay
            for _ in range(len(instances)):
                ticket = take_ticket()
                yield ticket_delay
                cri = instances[ticket % len(instances)]
                r = 0 if cri.cq.empty else (yield from self._progress_instance(cri))
                if r is None:
                    self.denied += 1
                elif r:
                    count = r
                    break
        if count == 0:
            yield self._empty_delay
        if traced:
            trc.end(tid, {"completions": count, "mode": "concurrent"})
        if self.post_round is not None and self.post_round.pending:
            yield from self.post_round.flush()
        return count


def make_progress_engine(sched, pool: CRIPool, config: ThreadingConfig,
                         costs: CostModel, dispatch, post_round=None):
    """Build the progress engine selected by ``config.progress``."""
    if config.progress == SERIAL:
        return SerialProgress(sched, pool, costs, dispatch, post_round)
    if config.progress == CONCURRENT:
        return ConcurrentProgress(sched, pool, costs, dispatch, post_round)
    raise ValueError(f"unknown progress mode {config.progress!r}")
