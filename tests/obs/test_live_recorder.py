"""Flight recorder: bundle contents, numbering, signal-path safety."""

import json

import pytest

import repro.obs.live.events as events_module
from repro.obs.live import (POSTMORTEM_SCHEMA, FlightRecorder, RunEventLog)


@pytest.fixture(autouse=True)
def small_ring(monkeypatch):
    """A three-record ring, so five events overflow it."""
    monkeypatch.setattr(events_module, "RING_SIZE", 3)


def _log(tmp_path, n=5):
    log = RunEventLog(tmp_path / "events.jsonl", "runX")
    log.emit("sweep.start")
    for i in range(n - 1):
        log.emit("trial.dispatch", k=f"d{i}", attempt=1)
    return log


def test_bundle_holds_ring_manifest_and_tail(tmp_path):
    log = _log(tmp_path)
    recorder = FlightRecorder(log, snapshot=lambda: {"state": "running"})
    bundle = recorder.dump(tmp_path, "retry-exhaustion",
                           exc=RuntimeError("boom"))

    manifest = json.loads((bundle / "postmortem.json").read_text())
    assert manifest["schema"] == POSTMORTEM_SCHEMA
    assert manifest["reason"] == "retry-exhaustion"
    assert manifest["run"] == "runX"
    assert manifest["error"] == "RuntimeError('boom')"
    assert manifest["status"] == {"state": "running"}
    assert manifest["contents"] == ["postmortem.json", "ring.jsonl",
                                    "traceback.txt"]
    # the ring is bounded: only the newest RING_SIZE events survive
    ring = [json.loads(line)
            for line in (bundle / "ring.jsonl").read_text().splitlines()]
    assert len(ring) == 3 and manifest["ring_events"] == 3
    assert manifest["events_total"] == 5
    assert ring[-1]["kind"] == "trial.dispatch"
    assert "RuntimeError: boom" in (bundle / "traceback.txt").read_text()


def test_bundles_are_numbered_not_overwritten(tmp_path):
    recorder = FlightRecorder(_log(tmp_path, n=1))
    first = recorder.dump(tmp_path, "retry-exhaustion")
    second = recorder.dump(tmp_path, "sigterm")
    assert first.name == "postmortem"
    assert second.name == "postmortem.2"
    assert json.loads((first / "postmortem.json").read_text())["reason"] \
        == "retry-exhaustion"
    assert json.loads((second / "postmortem.json").read_text())["reason"] \
        == "sigterm"
    assert recorder.dumps == [first, second]


def test_dump_without_exc_or_snapshot(tmp_path):
    recorder = FlightRecorder(_log(tmp_path, n=2))
    bundle = recorder.dump(tmp_path, "sigterm")
    manifest = json.loads((bundle / "postmortem.json").read_text())
    assert manifest["contents"] == ["postmortem.json", "ring.jsonl"]
    assert manifest["error"] is None and manifest["status"] is None
    assert not (bundle / "traceback.txt").exists()
