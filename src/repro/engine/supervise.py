"""Supervised worker execution: timeouts, dead-worker detection, retry.

``multiprocessing.Pool`` loses every in-flight trial when one worker is
OOM-killed and offers no per-task wall-clock limit; this module replaces
it with an explicitly supervised pool.  The parent assigns one task at a
time to each worker over a **private duplex pipe**, so at every instant
it knows exactly which worker owns which task.  Pipes, not a shared
result queue, on purpose: ``multiprocessing.Queue`` writes go through a
feeder thread that takes a lock shared by every producer, and a worker
dying mid-put (the exact event this module exists to survive) leaves
that lock held forever, wedging every sibling.  A ``Connection.send``
is synchronous and private, so a dying worker can corrupt only its own
channel -- which the parent already treats as a worker death.  That
makes three recoveries possible:

* **dead worker** -- the worker process is gone (``kill -9``, OOM, a
  fault-plan ``os._exit``): its task is requeued and a fresh worker
  spawned;
* **timeout** -- a task exceeds the policy's wall-clock budget: the
  worker is killed, the task requeued, a fresh worker spawned;
* **trial error** -- the trial function raised: reported by the (still
  healthy) worker and retried in place.

Retries back off exponentially (host-level :class:`RetryPolicy` --
virtual time never sees any of this) and are bounded; exhausting the
budget raises :class:`TrialRetryError` rather than hanging or silently
dropping a trial.  Because trials are pure, a retried trial returns the
same value as an undisturbed one, so supervision cannot change
artifacts -- only whether the sweep survives to produce them.

Outcomes stream to the caller's ``on_outcome`` callback as they
complete (the engine persists each to the trial cache immediately), so
a crash of the *parent* loses at most the in-flight trials -- the
property a rerun of the same ``repro run`` builds on.
"""

from __future__ import annotations

import heapq
import os
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.engine.task import TrialTask


@dataclass(frozen=True)
class RetryPolicy:
    """Host-level supervision budget for one pool run.

    ``timeout_s`` is the per-trial wall-clock limit (None: unlimited);
    ``max_retries`` bounds re-executions per trial beyond the first
    attempt; the backoff before attempt ``n+1`` is
    ``backoff_s * backoff_factor**(n-1)`` capped at ``backoff_max_s``.
    """

    max_retries: int = 2
    timeout_s: float | None = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0 (or None)")
        if self.backoff_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before retrying after attempt ``attempt``."""
        return min(self.backoff_max_s,
                   self.backoff_s * self.backoff_factor ** (attempt - 1))


def supervision(retries: int, timeout_s: float | None,
                flaky: float | None = None, flaky_seed: int = 1):
    """The ``(RetryPolicy, WorkerFaultPlan | None)`` of one run's knobs.

    ``flaky`` is the ``--flaky-workers`` rate: that share of first
    attempts loses its worker, half to an abrupt exit and half to a
    hang.  An injected hang must surface as a timeout, so ``flaky``
    defaults an unset ``timeout_s`` to 30 s and hangs for three
    timeouts.
    """
    faults = None
    if flaky is not None:
        from repro.faults.workers import WorkerFaultPlan

        if timeout_s is None:
            timeout_s = 30.0
        faults = WorkerFaultPlan(seed=flaky_seed, kill_rate=flaky / 2,
                                 hang_rate=flaky / 2, hang_s=timeout_s * 3)
    return RetryPolicy(max_retries=retries, timeout_s=timeout_s), faults


class TrialRetryError(RuntimeError):
    """A trial failed on every attempt its retry budget allowed."""

    def __init__(self, index: int, attempts: int, reason: str):
        super().__init__(
            f"trial #{index} failed after {attempts} attempt(s): {reason}")
        self.index = index
        self.attempts = attempts
        self.reason = reason


@dataclass
class _Worker:
    """Parent-side handle: the process, its pipe, and its assignment."""

    proc: object
    conn: object                #: parent end of the worker's duplex pipe
    index: int | None = None    #: task currently assigned (None: idle)
    attempt: int = 0
    deadline: float | None = None
    started: float | None = None  #: monotonic instant the assignment began
    sent: int = field(default=0)  #: tasks handed to this process


def _worker_main(conn, path_entries, faults, inherited=()) -> None:
    """Worker loop: run assigned tasks until the None sentinel.

    Messages back to the parent: ``("done", pid, index, attempt, value,
    busy_ns)`` or ``("error", pid, index, attempt, reason)``.  Fault
    injection happens *before* the trial runs and sends are synchronous,
    so a killed worker never leaves a half-reported outcome.

    ``inherited`` are the parent-side pipe ends a forked worker got
    with its address space (its own and its earlier siblings').  They
    are closed first: while any process holds the parent end of this
    worker's pipe, ``recv`` never sees EOF, so a worker whose parent
    was SIGKILLed would wait forever as an orphan.
    """
    for end in inherited:
        end.close()
    for entry in reversed(path_entries):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from repro.engine.registry import ensure_loaded

    ensure_loaded()
    pid = os.getpid()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return              # parent is gone: nothing left to report to
        if item is None:
            return
        index, task, attempt = item
        if faults is not None:
            faults.apply(index, attempt)
        start = time.perf_counter_ns()
        try:
            value = task.run()
        except BaseException as exc:
            reply = ("error", pid, index, attempt,
                     f"{type(exc).__name__}: {exc}")
        else:
            reply = ("done", pid, index, attempt, value,
                     time.perf_counter_ns() - start)
        try:
            conn.send(reply)
        except OSError:
            return              # parent is gone mid-trial


class _Supervisor:
    """One supervised execution of a task list (see :func:`run_supervised`)."""

    def __init__(self, tasks, jobs, counters, policy, faults, on_outcome,
                 monitor=None):
        from repro.engine.pool import TaskOutcome

        self._outcome_cls = TaskOutcome
        self.tasks = tasks
        self.counters = counters
        self.policy = policy
        self.faults = faults
        self.on_outcome = on_outcome
        self.monitor = monitor
        self.outcomes: list = [None] * len(tasks)
        self.done = 0
        #: min-heap of (ready_at, attempt, index) awaiting a worker
        self.pending: list[tuple[float, int, int]] = [
            (0.0, 1, i) for i in range(len(tasks))]
        heapq.heapify(self.pending)
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        self.forks = "fork" in methods
        self.ctx = multiprocessing.get_context(
            "fork" if self.forks else "spawn")
        self.workers: list[_Worker] = []
        for _ in range(min(jobs, len(tasks))):
            self.workers.append(self._spawn())

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        inherited = ([parent_conn] + [w.conn for w in self.workers]
                     if self.forks else [])
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, list(sys.path), self.faults, inherited),
            daemon=True)
        proc.start()
        child_conn.close()      # only the worker holds its end now
        return _Worker(proc, parent_conn)

    def _assign(self) -> None:
        """Hand ready pending tasks to idle workers."""
        now = time.monotonic()
        for worker in self.workers:
            if worker.index is not None or not self.pending:
                continue
            if self.pending[0][0] > now:
                continue
            _, attempt, index = heapq.heappop(self.pending)
            worker.index, worker.attempt = index, attempt
            worker.sent += 1
            worker.started = now
            timeout = self.policy.timeout_s
            worker.deadline = None if timeout is None else now + timeout
            try:
                worker.conn.send((index, self.tasks[index], attempt))
            except (OSError, ValueError):
                continue        # already dead: _reap requeues the task
            if self.monitor is not None:
                self.monitor.dispatch(index, attempt, worker.proc.pid)

    def _retry(self, index: int, attempt: int, reason: str) -> None:
        """Requeue a failed task with backoff, or give up loudly."""
        if attempt > self.policy.max_retries:
            raise TrialRetryError(index, attempt, reason)
        self.counters.retries += 1
        if self.monitor is not None:
            self.monitor.retry(index, attempt, reason)
        ready = time.monotonic() + self.policy.backoff_for(attempt)
        heapq.heappush(self.pending, (ready, attempt + 1, index))

    def _complete(self, index, attempt, value, busy_ns, pid) -> None:
        if self.outcomes[index] is not None:
            return  # duplicate of an already-retried task: pure, so drop
        outcome = self._outcome_cls(value, pid, busy_ns, attempt)
        self.outcomes[index] = outcome
        self.done += 1
        if self.on_outcome is not None:
            self.on_outcome(index, outcome)

    def _drain(self) -> None:
        """Consume every readable worker message (block briefly for one)."""
        by_conn = {worker.conn: worker for worker in self.workers}
        for conn in mp_connection.wait(list(by_conn), timeout=0.02):
            worker = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                continue        # worker died mid-send: _reap recovers it
            kind, pid = message[0], message[1]
            if worker.index == message[2]:
                worker.index, worker.deadline, worker.started = \
                    None, None, None
            if kind == "done":
                _, _, index, attempt, value, busy_ns = message
                self._complete(index, attempt, value, busy_ns, pid)
            else:
                _, _, index, attempt, reason = message
                if self.outcomes[index] is None:
                    self._retry(index, attempt, reason)

    def _reap(self) -> None:
        """Detect dead and overdue workers; recover their tasks."""
        now = time.monotonic()
        for slot, worker in enumerate(self.workers):
            dead = not worker.proc.is_alive()
            overdue = (worker.deadline is not None and now > worker.deadline)
            if not dead and not overdue:
                continue
            pid = worker.proc.pid
            if overdue and not dead:
                self.counters.timeouts += 1
                if self.monitor is not None:
                    self.monitor.timeout(worker.index, pid)
                worker.proc.kill()
                worker.proc.join(timeout=5)
            else:
                self.counters.worker_deaths += 1
                if self.monitor is not None:
                    self.monitor.worker_death(worker.index, pid)
            index, attempt = worker.index, worker.attempt
            self._close(worker)
            self.workers[slot] = self._spawn()
            self.counters.respawns += 1
            if self.monitor is not None:
                self.monitor.worker_respawn(self.workers[slot].proc.pid)
            if index is not None and self.outcomes[index] is None:
                reason = "timeout" if overdue and not dead else "worker died"
                self._retry(index, attempt, reason)

    @staticmethod
    def _close(worker: _Worker) -> None:
        if worker.proc.is_alive():  # pragma: no cover - defensive
            worker.proc.kill()
        worker.proc.join(timeout=5)
        worker.conn.close()

    # ------------------------------------------------------------------
    def run(self) -> list:
        try:
            while self.done < len(self.tasks):
                self._assign()
                self._drain()
                self._reap()
                if self.monitor is not None:
                    self.monitor.tick(self.workers)
        finally:
            for worker in self.workers:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
            for worker in self.workers:
                worker.proc.join(timeout=2)
                self._close(worker)
        return self.outcomes


def run_supervised(tasks: list[TrialTask], jobs: int, counters,
                   policy: RetryPolicy | None = None, faults=None,
                   on_outcome=None, monitor=None) -> list:
    """Execute ``tasks`` on a supervised ``jobs``-wide pool.

    Returns the outcomes in submission order.  Supervision work is
    tallied in place on ``counters`` (an
    :class:`~repro.engine.engine.EngineCounters`: ``retries``,
    ``timeouts``, ``worker_deaths``, ``respawns``), so it is counted
    even when the run fails.  ``on_outcome(index, outcome)`` fires in
    the parent as each trial completes (out of order); ``faults`` is an
    optional :class:`~repro.faults.workers.WorkerFaultPlan` applied
    inside the workers.  ``monitor`` is an optional telemetry adapter
    (duck-typed like :class:`repro.obs.live.session.PoolMonitor`): it
    receives ``dispatch`` / ``retry`` / ``timeout`` / ``worker_death`` /
    ``worker_respawn`` callbacks as supervision acts, plus a ``tick``
    per loop iteration with the live worker handles -- all in the
    parent process, entirely off the workers' execution path.  Raises
    :class:`TrialRetryError` when any trial exhausts the policy's
    retry budget.
    """
    policy = policy if policy is not None else RetryPolicy()
    return _Supervisor(tasks, jobs, counters, policy, faults, on_outcome,
                       monitor=monitor).run()
