"""The job index: dedup, bounded admission, lifecycle, served manifest."""

import json
import threading

import pytest

from repro.serve import JobIndex, QueueFull


@pytest.fixture
def index(tmp_path):
    idx = JobIndex(tmp_path / "served", workers=2)
    yield idx
    idx.close()


def wait_done(job, timeout=60):
    assert job.handle.wait(timeout=timeout), f"job stuck in {job.state}"
    return job


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
    names = job.artifact_names()
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
    gate.release.set()
    wait_done(job)
    snap = job.snapshot()
    assert snap["state"] == "done" and snap["artifacts"]
    assert snap["exhibit"] == "gated-snap"
    assert snap["params"] == {"quick": True}


def test_job_reads_running_until_its_manifest_is_written(index, monkeypatch):
    # the handle turns done before its completion callback writes
    # manifest.json; a poller must not see done in between
    entered, release = threading.Event(), threading.Event()
    write_manifest = index._on_finish

    def held_on_finish(handle):
        entered.set()
        assert release.wait(timeout=60)
        write_manifest(handle)

    monkeypatch.setattr(index, "_on_finish", held_on_finish)
    job, _ = index.submit("table1")
    try:
        assert entered.wait(timeout=60)
        assert job.handle.state == "done"
        assert job.state == "running"
        assert job.snapshot()["state"] == "running"
        assert job.snapshot()["artifacts"] == []
    finally:
        release.set()
    wait_done(job)
    assert job.state == "done" and job.snapshot()["state"] == "done"
    assert "manifest.json" in job.snapshot()["artifacts"]


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


def test_failed_job_records_the_error(index, monkeypatch):
    from repro.experiments.registry import EXPERIMENTS, Experiment

    def boom(quick=True):
        raise RuntimeError("scripted failure")

    monkeypatch.setitem(EXPERIMENTS, "gated-boom",
                        Experiment("gated-boom", "always fails", boom))
    job, _ = index.submit("gated-boom")
    job.handle.wait(timeout=30)
    assert job.state == "failed"
    assert "scripted failure" in job.snapshot()["error"]
    assert not (job.dir / "manifest.json").exists()  # no manifest for failures


def test_flaky_workers_requires_a_parallel_engine(tmp_path):
    with pytest.raises(ValueError, match="engine_jobs >= 2"):
        JobIndex(tmp_path / "served", engine_jobs=1, flaky_workers=0.5)


def test_close_is_idempotent_and_drains(index):
    job, _ = index.submit("table1")
    index.close()
    index.close()
    assert job.handle.finished
