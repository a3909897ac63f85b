"""The job index and its jobs: dedup, bounded admission, lifecycle,
served manifest and served telemetry."""

import json
import pathlib
import sys
import threading

import pytest

import repro.engine.manifest as manifest_module
from repro.engine import current_engine
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.obs.live import EVENTS_NAME, read_events
from repro.serve import JobIndex, QueueFull, request_key

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

from lint_events import lint_dir  # noqa: E402


@pytest.fixture
def index(tmp_path):
    idx = JobIndex(tmp_path / "served", workers=2)
    yield idx
    idx.close()


@pytest.fixture
def boom(monkeypatch):
    """Register ``gated-boom``, an exhibit that always raises."""
    def run(quick=True):
        raise RuntimeError("scripted failure")

    monkeypatch.setitem(EXPERIMENTS, "gated-boom",
                        Experiment("gated-boom", "always fails", run))
    return "gated-boom"


def wait_done(job, timeout=60):
    assert job.wait(timeout=timeout), f"job stuck in {job.state}"
    return job


def idle_job(index, exhibit):
    """A job indexed but never queued, so the test thread runs it."""
    return index._create(request_key(exhibit))


def events(job):
    return read_events(job.telemetry_dir / EVENTS_NAME)


def test_identical_submissions_map_to_one_job(index):
    job1, created1 = index.submit("table1", {"quick": True})
    job2, created2 = index.submit("table1", {})          # same canonical
    assert created1 and not created2
    assert job1 is job2
    assert job1.requests == 2
    wait_done(job1)
    assert index.stats()["cold_runs"] == 1
    assert index.stats()["dedup_hits"] == 1
    assert index.stats()["requests"] == 2


def test_completed_job_still_dedups(index):
    job, _ = index.submit("table1")
    wait_done(job)
    again, created = index.submit("table1")
    assert again is job and not created
    assert index.stats()["cold_runs"] == 1


def test_done_job_has_artifacts_and_served_manifest(index):
    job, _ = index.submit("table1")
    wait_done(job)
    assert job.state == "done"
    names = job.artifacts
    assert {"table1.csv", "table1.svg", "table1.txt",
            "manifest.json"} <= set(names)
    manifest = json.loads((job.dir / "manifest.json").read_text())
    assert manifest["schema"] == 5
    assert manifest["served"] == {"requests": 1, "dedup_hits": 0,
                                  "cold_runs": 1}
    assert manifest["experiments"] == ["table1"]
    assert manifest["engine"]["trials"] >= 0
    # telemetry narrated the run and the manifest recorded it
    assert manifest["telemetry"]["events"]["sweep.finish"] == 1
    assert (job.telemetry_dir / "events.jsonl").exists()


def test_served_block_counts_every_request(index):
    job, _ = index.submit("table1")
    index.submit("table1")
    index.submit("table1")
    wait_done(job)
    assert job.served_block() == {"requests": 3, "dedup_hits": 2,
                                  "cold_runs": 1}


def test_snapshot_hides_artifacts_until_done(index, gated_exhibit):
    gate = gated_exhibit("gated-snap")
    job, _ = index.submit("gated-snap")
    assert gate.started.wait(timeout=10)
    assert job.snapshot()["state"] == "running"
    assert job.snapshot()["artifacts"] == []
    assert "counters" not in job.snapshot()
    gate.release.set()
    wait_done(job)
    snap = job.snapshot()
    assert snap["state"] == "done" and snap["artifacts"]
    assert snap["exhibit"] == "gated-snap"
    assert snap["params"] == {"quick": True}


def test_lifecycle_and_timestamps(index):
    job = idle_job(index, "table1")
    assert job.state == "queued" and not job.finished
    assert job.started_at is None and job.finished_at is None
    job.run()
    assert job.state == "done" and job.error is None
    assert job.finished and job.wait(timeout=0)
    assert job.created_at <= job.started_at <= job.finished_at
    manifest = json.loads((job.dir / "manifest.json").read_text())
    assert manifest["wall_s"] == round(job.finished_at - job.started_at, 3)


def test_run_is_exactly_once(index):
    job = idle_job(index, "table1")
    job.run()
    with pytest.raises(RuntimeError, match="already done"):
        job.run()


def test_exhibit_runs_under_the_jobs_engine(index, monkeypatch):
    seen = []

    def probe(quick=True):
        seen.append(current_engine())
        from repro.experiments.table1 import run_table1

        return run_table1()

    monkeypatch.setitem(EXPERIMENTS, "engine-probe",
                        Experiment("engine-probe", "records its engine",
                                   probe))
    job = idle_job(index, "engine-probe")
    job.run()
    assert len(seen) == 1 and seen[0] is job.engine
    assert current_engine() is not job.engine   # scope restored after


def test_snapshot_reports_counters_only_when_terminal(index):
    job = idle_job(index, "table1")
    assert "counters" not in job.snapshot()
    job.run()
    snap = job.snapshot()
    assert snap["state"] == "done"
    assert snap["counters"] == job.engine.counters.as_row()
    assert "trials" in snap["counters"]


def test_job_reads_running_until_its_manifest_is_written(index, monkeypatch):
    # artifacts, finished_at and sweep.finish all precede manifest.json;
    # a poller must not see done in between
    entered, release = threading.Event(), threading.Event()
    write_manifest = manifest_module.write_manifest

    def held_write(out_dir, doc):
        entered.set()
        assert release.wait(timeout=60)
        return write_manifest(out_dir, doc)

    monkeypatch.setattr(manifest_module, "write_manifest", held_write)
    job, _ = index.submit("table1")
    try:
        assert entered.wait(timeout=60)
        assert job.finished_at is not None
        assert job.state == "running" and not job.finished
        assert job.snapshot()["state"] == "running"
        assert job.snapshot()["artifacts"] == []
    finally:
        release.set()
    wait_done(job)
    assert job.state == "done" and job.snapshot()["state"] == "done"
    assert "manifest.json" in job.snapshot()["artifacts"]


def test_waiters_wake_after_the_manifest_is_written(index):
    # a waiter blocked before run() starts wakes to a done job whose
    # manifest.json is already on disk
    job = idle_job(index, "table1")
    seen = []
    waiting = threading.Event()

    def waiter():
        waiting.set()
        job.wait(timeout=60)
        seen.append((job.state, (job.dir / "manifest.json").exists()))

    thread = threading.Thread(target=waiter)
    thread.start()
    assert waiting.wait(timeout=10)
    job.run()
    thread.join(timeout=60)
    assert seen == [("done", True)]


def test_failing_manifest_write_fails_the_job_and_wakes_waiters(
        index, monkeypatch):
    def full_disk(out_dir, doc):
        raise OSError("disk full")

    monkeypatch.setattr(manifest_module, "write_manifest", full_disk)
    job = idle_job(index, "table1")
    with pytest.raises(OSError, match="disk full"):
        job.run()
    assert job.finished and job.wait(timeout=0)
    assert job.state == "failed"
    assert job.error == "OSError: disk full"
    assert job.snapshot()["artifacts"] == []
    assert not (job.dir / "manifest.json").exists()
    # sweep.finish was narrated before the write and is not repeated;
    # the crash postmortem after it is the log's last word
    records = events(job)
    assert [e["kind"] for e in records].count("sweep.finish") == 1
    assert records[-1]["kind"] == "postmortem"
    assert records[-1]["reason"] == "crash"
    status = json.loads((job.telemetry_dir / "status.json").read_text())
    assert status["state"] == "failed"
    assert job.telemetry.log._handle.closed
    problems = []
    assert "state=failed," in lint_dir(job.telemetry_dir, problems)
    assert problems == []


def test_full_queue_refuses_with_queue_full(tmp_path, gated_exhibit):
    index = JobIndex(tmp_path / "served", workers=1, queue_limit=1)
    try:
        gate1 = gated_exhibit("gated-q1")
        gate2 = gated_exhibit("gated-q2")
        gate3 = gated_exhibit("gated-q3")
        running, _ = index.submit("gated-q1")
        assert gate1.started.wait(timeout=10)   # worker busy, queue empty
        queued, _ = index.submit("gated-q2")    # fills the queue
        with pytest.raises(QueueFull, match="queue is full"):
            index.submit("gated-q3")
        stats = index.stats()
        assert stats["rejected"] == 1
        assert stats["requests"] == 2           # the refusal is not a request
        assert index.get(running.id) and index.get(queued.id)
        # a rejected submission leaves no job behind: resubmit succeeds
        # once the queue drains
        gate1.release.set()
        gate2.release.set()
        gate3.release.set()
        wait_done(running), wait_done(queued)
        retry, created = index.submit("gated-q3")
        assert created
        wait_done(retry)
        assert retry.state == "done"
    finally:
        index.close()


def test_failed_job_records_the_error(index, boom):
    job, _ = index.submit(boom)
    wait_done(job, timeout=30)
    assert job.state == "failed"
    assert "scripted failure" in job.snapshot()["error"]
    assert not (job.dir / "manifest.json").exists()  # no manifest for failures


def test_failure_keeps_the_error_and_wakes_waiters(index, boom):
    job = idle_job(index, boom)
    woke = []
    waiter = threading.Thread(target=lambda: woke.append(job.wait(30)))
    waiter.start()
    with pytest.raises(RuntimeError, match="scripted failure"):
        job.run()
    waiter.join(timeout=30)
    assert not waiter.is_alive() and woke == [True]
    assert job.state == "failed"
    assert job.error == "RuntimeError: scripted failure"
    with pytest.raises(RuntimeError, match="already failed"):
        job.run()


def test_telemetry_narration_on_success_and_failure(index, boom):
    done, _ = index.submit("table1")
    failed, _ = index.submit(boom)
    for job, ok, state in ((done, True, "finished"),
                           (failed, False, "failed")):
        wait_done(job)
        records = events(job)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.finish"
        assert kinds.count("sweep.finish") == 1
        assert records[-1]["ok"] is ok
        assert job.telemetry.log._handle.closed
        problems = []
        assert f"state={state}," in lint_dir(job.telemetry_dir, problems)
        assert problems == []


def test_failed_job_leaves_a_crash_postmortem_like_repro_run(index, boom):
    job, _ = index.submit(boom)
    wait_done(job)
    records = events(job)
    assert [r["kind"] for r in records][-2:] == ["postmortem", "sweep.finish"]
    assert records[-2]["reason"] == "crash"
    assert records[-1]["ok"] is False
    bundle = job.telemetry_dir / "postmortem"
    manifest = json.loads((bundle / "postmortem.json").read_text())
    assert manifest["reason"] == "crash"
    assert "scripted failure" in (bundle / "traceback.txt").read_text()
    problems = []
    assert "state=failed," in lint_dir(job.telemetry_dir, problems)
    assert problems == []


def test_served_retry_exhaustion_leaves_a_postmortem(tmp_path, monkeypatch):
    import repro.experiments.extensions as ext

    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))
    index = JobIndex(tmp_path / "served", engine_jobs=2, flaky_workers=1.0,
                     retries=0, trial_timeout=2)
    try:
        job, _ = index.submit("ext-modes")
        wait_done(job)
    finally:
        index.close()
    assert job.state == "failed"
    assert job.error.startswith("TrialRetryError: ")
    bundle = job.telemetry_dir / "postmortem"
    assert json.loads((bundle / "postmortem.json").read_text())["reason"] \
        == "retry-exhaustion"
    records = events(job)
    assert [r["kind"] for r in records][-2:] == ["postmortem", "sweep.finish"]
    assert records[-1]["ok"] is False
    problems = []
    assert "state=failed," in lint_dir(job.telemetry_dir, problems)
    assert problems == []


def test_flaky_workers_requires_a_parallel_engine(tmp_path):
    with pytest.raises(ValueError, match="engine_jobs >= 2"):
        JobIndex(tmp_path / "served", engine_jobs=1, flaky_workers=0.5)


def test_close_is_idempotent_and_drains(index):
    job, _ = index.submit("table1")
    index.close()
    index.close()
    assert job.finished
