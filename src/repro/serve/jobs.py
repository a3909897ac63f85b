"""The job index: dedup, bounded queueing, and worker-thread fan-out.

One :class:`JobIndex` is the service's entire mutable state.  It maps
request digests (:mod:`~repro.serve.dedup`) to :class:`ServeJob`
records and enforces the service's two load-shaping contracts:

* **dedup, in-flight and completed** -- a submission whose digest is
  already indexed returns the existing job whatever its state, so N
  identical concurrent POSTs cost one simulation and a repeat of a
  finished exhibit costs none;
* **bounded admission** -- new (cold) jobs enter a bounded queue;
  when it is full the submission is refused with :class:`QueueFull`
  (HTTP 503) instead of letting memory and latency grow without bound.

Worker threads drain the queue.  A :class:`ServeJob` is the one record
of a served job: it holds a private
:class:`~repro.engine.engine.Engine` (sharing the service-wide
content-addressed :class:`~repro.engine.cache.TrialCache`, so even
*distinct* requests reuse overlapping trials) plus a per-job
:class:`~repro.obs.live.session.LiveTelemetry` session whose
``events.jsonl`` the SSE layer tails, and :meth:`ServeJob.run` takes
it through one ordering: artifacts, then ``sweep.finish``, then the
manifest (schema 5, with the ``served`` accounting block), then the
artifact listing and ``done``, then the closed log and the waiters.  A
reader that observes ``done`` can therefore never see a torn artifact
or a missing manifest, and reads of a finished job come from that
recorded listing, not the directory.  The job runs inside the
session's ``sweep()``, as ``repro run`` does, so a failed job leaves
the same postmortem bundle a failed run does.

The engine may itself be parallel (``engine_jobs >= 2`` forks a
supervised pool per job) and chaos-testable: a seeded
:class:`~repro.faults.workers.WorkerFaultPlan` exercises the retry
machinery under served load exactly as ``repro run --flaky-workers``
does, with byte-identical artifacts.
"""

from __future__ import annotations

import pathlib
import queue
import threading
import time

from repro.engine.cache import TrialCache
from repro.engine.engine import Engine, use_engine
from repro.engine.supervise import supervision
from repro.serve.dedup import RequestKey, request_key

#: where one job's artifacts + telemetry live under the service root
JOBS_DIR = "jobs"


class QueueFull(RuntimeError):
    """The bounded admission queue is at capacity (HTTP 503)."""


class ServeJob:
    """One deduplicated unit of served work, from submission to manifest.

    ``engine`` is the private :class:`~repro.engine.engine.Engine` the
    job's trials run through and ``telemetry`` the live-telemetry
    session already attached to it.  :meth:`run` moves the job
    ``queued -> running -> done | failed`` exactly once; ``state``,
    ``error``, ``started_at`` and ``finished_at`` change under the
    job's lock, and :meth:`wait` blocks on a one-shot event set after
    the last of them.  ``artifacts`` names the files the job wrote,
    sorted and recorded under the lock with ``done`` (empty before and
    on failure); it is what the service lists and serves.
    ``requests`` counts every submission that mapped here (the first,
    cold one included); it is only ever mutated under the index lock.
    """

    def __init__(self, key: RequestKey, job_dir: pathlib.Path,
                 engine: Engine, telemetry):
        self.key = key
        self.dir = job_dir
        self.engine = engine
        self.telemetry = telemetry
        self.requests = 0
        self.created_at = time.time()
        self.state = "queued"
        self.error: str | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.artifacts: tuple[str, ...] = ()
        self._finished = threading.Event()
        self._lock = threading.Lock()

    @property
    def id(self) -> str:
        """The job id -- the request digest (content address)."""
        return self.key.digest

    @property
    def telemetry_dir(self) -> pathlib.Path:
        """Where this job's live telemetry (events.jsonl, ...) lands."""
        return self.dir / "telemetry"

    # -- execution ------------------------------------------------------
    def run(self) -> None:
        """Run the job on the calling thread; a second call raises.

        Inside the telemetry session's
        :meth:`~repro.obs.live.session.LiveTelemetry.sweep`, runs the
        exhibit under the job's engine and writes its artifacts, stamps
        ``finished_at``, narrates ``sweep.finish``, writes the served
        manifest, and records the artifact listing as it turns
        ``done``; then the session closes the event log and the
        waiters wake.  An exception is narrated by the session exactly
        as ``repro run`` narrates it (a postmortem bundle, then a
        failed ``sweep.finish`` unless one was written), turns the job
        ``failed`` (the error kept as ``"Type: message"``, no manifest
        written), wakes waiters and is re-raised.
        """
        with self._lock:
            if self.state != "queued":
                raise RuntimeError(
                    f"job {self.id} already {self.state}; jobs run once")
            self.state = "running"
            self.started_at = time.time()
        exhibit, params = self.key.exhibit, self.key.params_dict()
        telemetry = self.telemetry
        try:
            with telemetry.sweep():
                from repro.engine.manifest import (build_manifest,
                                                   write_manifest)
                from repro.experiments.artifacts import save_result
                from repro.experiments.registry import run_experiment

                with use_engine(self.engine):
                    save_result(run_experiment(exhibit,
                                               quick=params["quick"]),
                                self.dir)
                with self._lock:
                    self.finished_at = time.time()
                telemetry.sweep_finish(True)
                write_manifest(self.dir, build_manifest(
                    command=["repro", "serve", exhibit],
                    experiments=[exhibit], params=params,
                    engine=self.engine,
                    wall_s=self.finished_at - self.started_at,
                    telemetry=telemetry.summary(),
                    served=self.served_block()))
                with self._lock:
                    self.artifacts = tuple(sorted(
                        p.name for p in self.dir.iterdir() if p.is_file()))
                    self.state = "done"
        except BaseException as exc:
            with self._lock:
                self.error = f"{type(exc).__name__}: {exc}"
                self.state = "failed"
                self.finished_at = time.time()
            raise
        finally:
            self._finished.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finished; False if ``timeout`` elapsed."""
        return self._finished.wait(timeout)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state (done or failed)."""
        return self._finished.is_set()

    # -- reads ----------------------------------------------------------
    def served_block(self) -> dict:
        """The manifest's ``served`` accounting block for this job."""
        return {"requests": self.requests,
                "dedup_hits": self.requests - 1,
                "cold_runs": 1}

    def snapshot(self) -> dict:
        """The JSON status document ``GET /experiments/<id>`` returns."""
        with self._lock:
            doc = {
                "id": self.id,
                "state": self.state,
                "error": self.error,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }
            artifacts = list(self.artifacts)
        if doc["state"] in ("done", "failed"):
            doc["counters"] = self.engine.counters.as_row()
        doc.update({
            "exhibit": self.key.exhibit,
            "params": self.key.params_dict(),
            "requests": self.requests,
            "artifacts": artifacts,
        })
        return doc


class JobIndex:
    """Dedup index + bounded queue + worker pool (see module docs).

    ``engine_jobs`` is the per-job engine's worker-process count;
    ``workers`` how many jobs may run concurrently (threads);
    ``queue_limit`` the admission bound; ``flaky_workers`` arms the
    seeded chaos plan (requires ``engine_jobs >= 2``, exactly like the
    CLI flag).
    """

    def __init__(self, root, engine_jobs: int = 1, workers: int = 2,
                 queue_limit: int = 32, retries: int = 2,
                 trial_timeout: float | None = None,
                 flaky_workers: float | None = None, flaky_seed: int = 1):
        if engine_jobs < 1 or workers < 1 or queue_limit < 1:
            raise ValueError("engine_jobs, workers and queue_limit "
                             "must all be >= 1")
        if flaky_workers is not None and engine_jobs < 2:
            raise ValueError("flaky_workers injects faults into the "
                             "supervised pool: use engine_jobs >= 2")
        self.root = pathlib.Path(root)
        self.engine_jobs = engine_jobs
        self.retries = retries
        self.trial_timeout = trial_timeout
        self.flaky_workers = flaky_workers
        self.flaky_seed = flaky_seed
        self.jobs: dict[str, ServeJob] = {}
        self.rejected = 0           # refusals leave no job to count them
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{n}", daemon=True)
            for n in range(workers)]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------
    def submit(self, exhibit, params=None) -> tuple[ServeJob, bool]:
        """Map one request to its job; returns ``(job, created)``.

        Raises the :mod:`~repro.serve.dedup` 4xx exceptions on invalid
        input and :class:`QueueFull` when a cold job cannot be
        admitted.  Identical concurrent submissions serialize on the
        index lock, so exactly one of them creates the job.
        """
        key = request_key(exhibit, params)
        with self._lock:
            job = self.jobs.get(key.digest)
            if job is not None:
                job.requests += 1
                return job, False
            # every producer holds this lock and workers only *drain*,
            # so a not-full check here cannot race into a blocked put
            if self._queue.full():
                self.rejected += 1
                raise QueueFull(
                    f"job queue is full ({self._queue.maxsize} pending); "
                    f"retry later")
            job = self._create(key)
            self._queue.put_nowait(job)
            job.requests += 1
            return job, True

    def _create(self, key: RequestKey) -> ServeJob:
        """Build the job record (caller holds the index lock)."""
        job_dir = self.root / JOBS_DIR / key.digest
        policy, faults = supervision(self.retries, self.trial_timeout,
                                     self.flaky_workers, self.flaky_seed)
        from repro.obs.live import LiveTelemetry

        telemetry = LiveTelemetry(
            job_dir / "telemetry", key.digest,
            experiments=[key.exhibit], params=key.params_dict(),
            jobs=self.engine_jobs)
        engine = Engine(
            jobs=self.engine_jobs,
            cache=TrialCache(self.root / ".cache"),
            policy=policy, faults=faults, telemetry=telemetry)
        job = ServeJob(key, job_dir, engine, telemetry)
        self.jobs[key.digest] = job
        return job

    # -- execution ------------------------------------------------------
    def _worker_loop(self) -> None:
        """One worker thread: drain the queue until the None sentinel."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                job.run()
            except BaseException:
                pass  # recorded on the job; served as state=failed

    # -- reads ----------------------------------------------------------
    def get(self, job_id: str) -> ServeJob | None:
        """The job for one digest, or None."""
        with self._lock:
            return self.jobs.get(job_id)

    def list_jobs(self) -> list[ServeJob]:
        """Every indexed job, oldest submission first."""
        with self._lock:
            return sorted(self.jobs.values(), key=lambda j: j.created_at)

    def stats(self) -> dict:
        """The service-level accounting document (``GET /stats``),
        derived from each job's ``requests`` (the first a cold run)."""
        with self._lock:
            by_state: dict[str, int] = {}
            requests = 0
            for job in self.jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
                requests += job.requests
            return {
                "requests": requests,
                "dedup_hits": requests - len(self.jobs),
                "cold_runs": len(self.jobs),
                "rejected": self.rejected,
                "jobs": by_state,
                "queue_depth": self._queue.qsize(),
                "engine_jobs": self.engine_jobs,
                "workers": len(self._threads),
            }

    # -- shutdown -------------------------------------------------------
    def close(self, timeout_s: float = 30.0) -> None:
        """Stop the workers (idempotent); running jobs finish first."""
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._threads = []
