"""Heartbeat: progress and ETA math, rate limiting, atomic completeness."""

import json

import repro.obs.live.session as session_module
from repro.engine import EngineCounters
from repro.obs.enginestats import sweep_progress
from repro.obs.live import (STATUS_SCHEMA, STATUS_STATES, LiveTelemetry,
                            load_status, write_status)


def _row(jobs=1, **counters):
    """An engine row (``engine_row``'s keys) with the given counters."""
    row = EngineCounters(**counters).as_row()
    row.update(jobs=jobs, utilization=0.0)
    return row


def test_eta_from_mean_cost_per_worker():
    # 4 remaining, mean cost 2s, 2 workers => 4 seconds
    progress, eta = sweep_progress(_row(jobs=2, trials=6, cache_misses=2,
                                        busy_ns=4_000_000_000))
    assert eta == 4.0
    assert progress == {"planned": 6, "done": 2, "computed": 2,
                        "cache_hits": 0, "shard_skipped": 0, "pct": 33.3}
    # uncacheable trials are computed too; hits and skips cost nothing
    _, eta = sweep_progress(_row(trials=6, uncacheable=1, cache_hits=1,
                                 busy_ns=2_000_000_000))
    assert eta == 8.0


def test_eta_edge_cases():
    done = _row(jobs=2, trials=3, cache_hits=1, shard_skipped=1,
                cache_misses=1, busy_ns=1_000_000_000)
    assert sweep_progress(done) == (
        {"planned": 3, "done": 3, "computed": 1, "cache_hits": 1,
         "shard_skipped": 1, "pct": 100.0}, 0.0)
    # nothing planned yet: no pct, nothing left
    assert sweep_progress(_row()) == (
        {"planned": 0, "done": 0, "computed": 0, "cache_hits": 0,
         "shard_skipped": 0}, 0.0)
    # trials left but none computed: nothing to go on
    assert sweep_progress(_row(jobs=4, trials=5, cache_hits=2))[1] is None


def test_writer_stamps_schema_ts_pid(tmp_path):
    write_status(tmp_path / "status.json", {"state": "running", "custom": 7})
    doc = load_status(tmp_path / "status.json")
    assert doc["schema"] == STATUS_SCHEMA
    assert doc["state"] in STATUS_STATES
    assert doc["custom"] == 7
    assert isinstance(doc["ts"], float) and isinstance(doc["pid"], int)


def test_writer_rate_limits_unless_forced(tmp_path, monkeypatch):
    monkeypatch.setattr(session_module, "HEARTBEAT_S", 60.0)
    tele = LiveTelemetry(tmp_path, "runR")
    built = []
    snapshot = tele.snapshot
    monkeypatch.setattr(tele, "snapshot",
                        lambda: built.append(1) or snapshot())
    tele.heartbeat()
    tele.state = "finished"
    tele.heartbeat()                    # inside the cadence: nothing built
    assert len(built) == 1
    assert load_status(tmp_path / "status.json")["state"] == "running"
    tele.heartbeat(force=True)
    assert len(built) == 2
    assert load_status(tmp_path / "status.json")["state"] == "finished"
    assert "state=\"finished\"" in (tmp_path / "metrics.prom").read_text()
    tele.close()


def test_write_replaces_atomically(tmp_path):
    path = tmp_path / "status.json"
    write_status(path, {"n": 1})
    write_status(path, {"n": 2})
    # no temp droppings left behind; document is always complete JSON
    assert [p.name for p in tmp_path.iterdir()] == ["status.json"]
    assert json.loads(path.read_text())["n"] == 2


def test_load_status_never_raises(tmp_path):
    assert load_status(tmp_path / "absent.json") is None
    (tmp_path / "torn.json").write_text('{"state": "runn')
    assert load_status(tmp_path / "torn.json") is None
    (tmp_path / "list.json").write_text("[1, 2]")
    assert load_status(tmp_path / "list.json") is None
