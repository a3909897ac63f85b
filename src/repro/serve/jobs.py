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

Worker threads drain the queue.  Each job runs under its own
:class:`~repro.engine.handle.JobHandle`: a private
:class:`~repro.engine.engine.Engine` (sharing the service-wide
content-addressed :class:`~repro.engine.cache.TrialCache`, so even
*distinct* requests reuse overlapping trials) plus a per-job
:class:`~repro.obs.live.session.LiveTelemetry` session whose
``events.jsonl`` the SSE layer tails.  Artifacts are written inside
the job thunk -- before the handle flips to ``done`` -- so a reader
that observes ``done`` can never see a torn artifact; the manifest
(schema 5, with the ``served`` accounting block) is written by the
handle's completion callback, before any waiter wakes.

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
from repro.engine.engine import Engine
from repro.engine.handle import JobHandle
from repro.engine.supervise import supervision
from repro.serve.dedup import RequestKey, request_key

#: where one job's artifacts + telemetry live under the service root
JOBS_DIR = "jobs"


class QueueFull(RuntimeError):
    """The bounded admission queue is at capacity (HTTP 503)."""


class ServeJob:
    """One deduplicated unit of served work: key, handle, paths, counts.

    ``requests`` counts every submission that mapped here (the first,
    cold one included); it is only ever mutated under the index lock.
    """

    def __init__(self, key: RequestKey, job_dir: pathlib.Path,
                 handle: JobHandle):
        self.key = key
        self.dir = job_dir
        self.handle = handle
        self.requests = 0
        self.created_at = time.time()

    @property
    def id(self) -> str:
        """The job id -- the request digest (content address)."""
        return self.key.digest

    @property
    def state(self) -> str:
        """The job's lifecycle state (queued/running/done/failed).

        The handle turns terminal before its completion callback writes
        the manifest; the job reads ``running`` until that callback has
        returned, so a reader that sees ``done`` finds every artifact.
        """
        state = self.handle.state
        if state in ("done", "failed") and not self.handle.finished:
            return "running"
        return state

    @property
    def telemetry_dir(self) -> pathlib.Path:
        """Where this job's live telemetry (events.jsonl, ...) lands."""
        return self.dir / "telemetry"

    def served_block(self) -> dict:
        """The manifest's ``served`` accounting block for this job."""
        return {"requests": self.requests,
                "dedup_hits": self.requests - 1,
                "cold_runs": 1}

    def artifact_names(self) -> list[str]:
        """The servable files currently present in the job directory."""
        if not self.dir.is_dir():
            return []
        return sorted(p.name for p in self.dir.iterdir() if p.is_file())

    def snapshot(self) -> dict:
        """The JSON status document ``GET /experiments/<id>`` returns."""
        state = self.state  # first: the handle snapshot can only be newer
        doc = self.handle.snapshot()
        doc.update({
            "state": state,
            "exhibit": self.key.exhibit,
            "params": self.key.params_dict(),
            "requests": self.requests,
            "artifacts": self.artifact_names() if state == "done" else [],
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
        self.requests = 0
        self.dedup_hits = 0
        self.cold_runs = 0
        self.rejected = 0
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
            self.requests += 1
            job = self.jobs.get(key.digest)
            if job is not None:
                job.requests += 1
                self.dedup_hits += 1
                return job, False
            # every producer holds this lock and workers only *drain*,
            # so a not-full check here cannot race into a blocked put
            if self._queue.full():
                self.rejected += 1
                self.requests -= 1
                raise QueueFull(
                    f"job queue is full ({self._queue.maxsize} pending); "
                    f"retry later")
            job = self._create(key)
            self._queue.put_nowait(job)
            job.requests += 1
            self.cold_runs += 1
            return job, True

    def _create(self, key: RequestKey) -> ServeJob:
        """Build the job record + handle (caller holds the index lock)."""
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
        handle = JobHandle(key.digest, self._thunk(key, job_dir),
                           engine=engine, telemetry=telemetry,
                           on_finish=self._on_finish)
        job = ServeJob(key, job_dir, handle)
        self.jobs[key.digest] = job
        return job

    def _thunk(self, key: RequestKey, job_dir: pathlib.Path):
        """The job body: run the exhibit, write its artifacts."""
        def run():
            from repro.experiments.artifacts import save_result
            from repro.experiments.registry import run_experiment

            result = run_experiment(key.exhibit,
                                    quick=key.params_dict()["quick"])
            save_result(result, job_dir)
            return result
        return run

    def _on_finish(self, handle: JobHandle) -> None:
        """Handle completion callback: persist the served manifest."""
        job = self.jobs.get(handle.id)
        if job is None or handle.state != "done":  # pragma: no cover
            return
        from repro.engine.manifest import build_manifest, write_manifest

        telemetry = handle.telemetry
        manifest = build_manifest(
            command=["repro", "serve", job.key.exhibit],
            experiments=[job.key.exhibit],
            params=job.key.params_dict(),
            engine=handle.engine,
            wall_s=(handle.finished_at or 0) - (handle.started_at or 0),
            telemetry=telemetry.summary() if telemetry is not None else None,
            served=job.served_block())
        write_manifest(job.dir, manifest)

    # -- execution ------------------------------------------------------
    def _worker_loop(self) -> None:
        """One worker thread: drain the queue until the None sentinel."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                job.handle.execute()
            except BaseException:
                pass  # recorded on the handle; served as state=failed

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
        """The service-level accounting document (``GET /stats``)."""
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self.jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "requests": self.requests,
                "dedup_hits": self.dedup_hits,
                "cold_runs": self.cold_runs,
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
