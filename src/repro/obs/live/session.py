"""`LiveTelemetry`: the one object the engine narrates a sweep through.

The engine and the supervised pool know nothing about files, cadences
or schemas -- they call duck-typed hooks on whatever ``telemetry``
object the CLI handed them (or on ``None``, which costs one branch).
This module is that object.  One :class:`LiveTelemetry` session owns a
telemetry directory and fans each hook out to the three surfaces:

* every hook appends a record to the run-event log
  (:mod:`~repro.obs.live.events`);
* the atomic heartbeat (:mod:`~repro.obs.live.status`) and its
  Prometheus mirror (:mod:`~repro.obs.live.prom`) are rewritten on a
  cadence from one snapshot;
* the event ring backs the flight recorder
  (:mod:`~repro.obs.live.recorder`), dumped on retry exhaustion, a
  crash, SIGTERM or SIGINT (Ctrl-C).

The session keeps no count of its own (progress comes from the
engine's counters, event tallies from the log, bundles from the
recorder), and :meth:`LiveTelemetry.sweep` is the one narration of a
sweep that ``repro run`` and a served job both run inside.

Layering: the session lives at engine level, *above* the simulation --
no telemetry code runs inside the simcore loop, so the PR-8 fast path
is untouched, and a run without ``--out`` (or with ``--no-telemetry``)
constructs no session at all.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import signal
import time

from repro.obs.enginestats import engine_row, sweep_progress
from repro.obs.live.events import EVENTS_NAME, RunEventLog, trial_digest
from repro.obs.live.prom import PROM_NAME, render_prom
from repro.obs.live.recorder import FlightRecorder
from repro.obs.live.status import STATUS_NAME, write_status
from repro.util.atomicio import atomic_write_text

#: ring records replayed into the heartbeat's ``recent`` list
RECENT_EVENTS = 8

#: least seconds between two unforced heartbeat writes
HEARTBEAT_S = 0.25


class PoolMonitor:
    """Supervised-pool callbacks bound to one telemetry session.

    The supervisor reports in its own task indexes; the monitor owns
    the index-to-fingerprint mapping for the batch (built from the
    engine's ``(identity, plan_index)`` pairs), so supervise.py stays
    ignorant of trial identities.
    """

    def __init__(self, session: "LiveTelemetry", keys):
        self.session = session
        self.digests = [trial_digest(identity, plan_index)
                        for identity, plan_index in keys]

    def dispatch(self, index: int, attempt: int,
                 pid: int | None = None) -> None:
        """A task was handed to a worker (or is about to run inline)."""
        self.session.trial_dispatch(self.digests[index], attempt, pid=pid)

    def complete(self, index: int, attempt: int, busy_ns: int) -> None:
        """A task's value arrived (called from the engine's outcome)."""
        self.session.trial_complete(self.digests[index], attempt, busy_ns)

    def retry(self, index: int, attempt: int, reason: str) -> None:
        """A failed task was requeued with backoff."""
        self.session.trial_retry(self.digests[index], attempt, reason)

    def timeout(self, index: int | None, pid: int) -> None:
        """A worker was killed for exceeding the trial budget."""
        digest = self.digests[index] if index is not None else None
        self.session.trial_timeout(digest, pid=pid)

    def worker_death(self, index: int | None, pid: int) -> None:
        """A worker process was found dead."""
        digest = self.digests[index] if index is not None else None
        self.session.worker_death(digest, pid=pid)

    def worker_respawn(self, pid: int) -> None:
        """A replacement worker was started."""
        self.session.worker_respawn(pid=pid)

    def tick(self, workers) -> None:
        """One supervisor loop iteration: refresh the worker table."""
        self.session.pool_tick(workers, self.digests)


class LiveTelemetry:
    """One sweep's live telemetry session (see module docs).

    ``run_id`` should be deterministic for the sweep (the CLI uses
    :func:`repro.cli.sweep_id`), so event *contents* are reproducible;
    host identity lives in the heartbeat's ``pid``/``ts`` fields
    instead.  The ETA extrapolates from the attached engine's computed
    trials only: a rerun over a warm cache starts with no cost sample,
    exactly like a fresh run.
    """

    def __init__(self, out_dir, run_id: str, experiments=(), params=None,
                 jobs: int = 1):
        self.dir = pathlib.Path(out_dir)
        self.run_id = run_id
        self.experiments = sorted(str(e) for e in experiments)
        self.params = dict(params or {})
        self.jobs = jobs
        self.log = RunEventLog(self.dir / EVENTS_NAME, run_id)
        self.recorder = FlightRecorder(self.log, snapshot=self.snapshot)
        self.engine = None
        self.state = "running"
        self._workers: list[dict] = []
        self._started = time.monotonic()
        self._last_beat = float("-inf")
        self._previous_sigterm = None
        self._owner_pid = os.getpid()

    # -- wiring ---------------------------------------------------------
    def attach(self, engine) -> None:
        """Bind the engine whose counters the heartbeat reads."""
        self.engine = engine
        self.jobs = engine.jobs

    def pool_monitor(self, keys) -> PoolMonitor:
        """Callbacks for one pool run over ``(identity, plan_index)``s."""
        return PoolMonitor(self, keys)

    # -- sweep lifecycle ------------------------------------------------
    @contextlib.contextmanager
    def sweep(self):
        """Narrate the ``with`` body: ``sweep.start``, then a closed log.

        SIGTERM goes through :meth:`handle_sigterm` meanwhile (on the
        main thread); its ``SystemExit`` passes through, narrated.  Any
        other escaping exception becomes a postmortem
        (``retry-exhaustion`` for a ``TrialRetryError``, ``sigint`` for
        Ctrl-C, else ``crash``) and, unless one was written or Ctrl-C,
        a failed ``sweep.finish``; then it is re-raised.
        """
        self.install_sigterm()
        try:
            self.sweep_start()
            yield self
        except SystemExit:
            raise
        except BaseException as exc:
            from repro.engine.supervise import TrialRetryError

            if isinstance(exc, TrialRetryError):
                reason = "retry-exhaustion"
            elif isinstance(exc, KeyboardInterrupt):
                reason = "sigint"
            else:
                reason = "crash"
            running = self.state == "running"
            self.postmortem(reason, exc)
            if running and reason != "sigint":
                self.sweep_finish(False)
            raise
        finally:
            self.restore_sigterm()
            self.close()

    def sweep_start(self) -> None:
        """The sweep began: first event, first heartbeat."""
        self.log.emit("sweep.start", experiments=self.experiments,
                      params=self.params, jobs=self.jobs)
        self.heartbeat(force=True)

    def sweep_finish(self, ok: bool) -> None:
        """The sweep ended; writes the final heartbeat and event."""
        fields = {"ok": ok}
        if self.engine is not None:
            # host-free: equal between serial, --jobs N and seeded chaos
            fields["counters"] = self.engine.counters.deterministic()
        self.log.emit("sweep.finish", **fields)
        if self.state == "running":
            self.state = "finished" if ok else "failed"
        self.heartbeat(force=True)

    def close(self) -> None:
        """Release the event-log file handle (idempotent)."""
        self.log.close()

    # -- engine hooks ---------------------------------------------------
    def trial_cache_hit(self, identity: str | None, plan_index: int) -> None:
        """A trial was answered from the content-addressed cache."""
        self.log.emit("trial.cache_hit", k=trial_digest(identity, plan_index))
        self.heartbeat()

    def trial_shard_skip(self, identity: str | None, plan_index: int) -> None:
        """A trial owned by another shard was skipped."""
        self.log.emit("trial.shard_skip",
                      k=trial_digest(identity, plan_index))
        self.heartbeat()

    def trial_dispatch(self, digest: str, attempt: int,
                       pid: int | None = None) -> None:
        """A trial was handed to a worker (or is about to run inline)."""
        fields = {"k": digest, "attempt": attempt}
        if pid is not None:
            fields["pid"] = pid
        self.log.emit("trial.dispatch", **fields)

    def trial_complete(self, digest: str, attempt: int,
                       busy_ns: int) -> None:
        """A trial's value arrived and was persisted."""
        self.log.emit("trial.complete", k=digest, attempt=attempt,
                      ns=busy_ns)
        self.heartbeat()

    def trial_retry(self, digest: str, attempt: int, reason: str) -> None:
        """A failed trial was requeued with backoff."""
        self.log.emit("trial.retry", k=digest, attempt=attempt,
                      reason=reason)

    def trial_timeout(self, digest: str | None,
                      pid: int | None = None) -> None:
        """A worker exceeded the per-trial wall-clock budget."""
        fields = {"k": digest}
        if pid is not None:
            fields["pid"] = pid
        self.log.emit("trial.timeout", **fields)

    def worker_death(self, digest: str | None,
                     pid: int | None = None) -> None:
        """A worker process died (mid-trial when ``digest`` is set)."""
        fields = {"k": digest}
        if pid is not None:
            fields["pid"] = pid
        self.log.emit("worker.death", **fields)

    def worker_respawn(self, pid: int | None = None) -> None:
        """A replacement worker joined the pool."""
        fields = {"pid": pid} if pid is not None else {}
        self.log.emit("worker.respawn", **fields)

    def cache_quarantine(self, entries: int) -> None:
        """Corrupt cache entries were quarantined to ``*.bad``."""
        self.log.emit("cache.quarantine", entries=entries)

    # -- heartbeat ------------------------------------------------------
    def pool_tick(self, workers, digests: list[str]) -> None:
        """Refresh the per-worker table from the supervisor's handles."""
        now = time.monotonic()
        table = []
        for slot, worker in enumerate(workers):
            busy = worker.index is not None
            started = getattr(worker, "started", None)
            table.append({
                "slot": slot,
                "pid": worker.proc.pid,
                "trial": digests[worker.index] if busy else None,
                "attempt": worker.attempt if busy else 0,
                "busy_s": round(now - started, 3)
                if busy and started is not None else 0.0,
                "sent": worker.sent,
            })
        self._workers = table
        self.heartbeat()

    def snapshot(self) -> dict:
        """The heartbeat document body (everything but ts/pid/schema)."""
        counters = engine_row(self.engine) if self.engine is not None else {}
        progress, eta_s = sweep_progress(counters) if counters else ({}, None)
        return {
            "run": self.run_id,
            "state": self.state,
            "experiments": self.experiments,
            "jobs": self.jobs,
            "elapsed_s": round(time.monotonic() - self._started, 3),
            "progress": progress,
            "eta_s": eta_s,
            "workers": self._workers,
            "counters": counters,
            "events": {"total": self.log.total,
                       "by_kind": dict(sorted(self.log.counts.items()))},
            "recent": list(self.log.ring)[-RECENT_EVENTS:],
            "postmortem": self.recorder.dumps[-1].name
            if self.recorder.dumps else None,
        }

    def heartbeat(self, force: bool = False) -> None:
        """Rewrite ``status.json`` + ``metrics.prom`` from one snapshot,
        unless unforced and within :data:`HEARTBEAT_S` of the last."""
        now = time.monotonic()
        if not force and now - self._last_beat < HEARTBEAT_S:
            return
        self._last_beat = now
        snapshot = self.snapshot()
        write_status(self.dir / STATUS_NAME, snapshot)
        atomic_write_text(self.dir / PROM_NAME, render_prom(snapshot))

    # -- failure paths --------------------------------------------------
    def postmortem(self, reason: str, exc: BaseException | None = None):
        """Dump a flight-recorder bundle; returns its path."""
        bundle = self.recorder.dump(self.dir, reason, exc)
        self.log.emit("postmortem", reason=reason, bundle=bundle.name)
        self.state = ("killed" if reason in ("sigterm", "sigint")
                      else "failed")
        self.heartbeat(force=True)
        return bundle

    def handle_sigterm(self, signum=None, frame=None) -> None:
        """SIGTERM: dump the flight recorder, then exit 143.

        Forked pool workers inherit this handler (and the open file
        handles behind it); when ``timeout``/``kill`` signals the whole
        process group, only the installing process may narrate -- a
        worker restores the default disposition and dies quietly, or
        the parent's files get several interleaved postmortems.
        """
        if os.getpid() != self._owner_pid:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        self.postmortem("sigterm")
        raise SystemExit(128 + signal.SIGTERM)

    def install_sigterm(self) -> None:
        """Route SIGTERM through :meth:`handle_sigterm` for this sweep."""
        try:
            self._previous_sigterm = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, self.handle_sigterm)
        except ValueError:  # not the main thread (a served job's)
            self._previous_sigterm = None

    def restore_sigterm(self) -> None:
        """Put the previous SIGTERM disposition back."""
        if self._previous_sigterm is not None:
            signal.signal(signal.SIGTERM, self._previous_sigterm)
            self._previous_sigterm = None

    # -- provenance -----------------------------------------------------
    def summary(self) -> dict:
        """The manifest's telemetry block (event counts, postmortem)."""
        return {
            "dir": self.dir.name,
            "events_total": self.log.total,
            "events": dict(sorted(self.log.counts.items())),
            "postmortem": self.recorder.dumps[-1].name
            if self.recorder.dumps else None,
        }
