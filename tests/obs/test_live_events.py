"""Run-event log: schema, causality keys, ring, torn-line tolerance."""

import json

import pytest

from repro.obs.live import (EVENT_KINDS, EVENTS_SCHEMA, HOST_FIELDS,
                            RunEventLog, canonical_line, read_events,
                            trial_digest)


def _log(tmp_path, **kwargs):
    return RunEventLog(tmp_path / "events.jsonl", "runid42", **kwargs)


def test_records_carry_schema_seq_run_and_kind(tmp_path):
    log = _log(tmp_path)
    first = log.emit("sweep.start", jobs=2)
    second = log.emit("trial.dispatch", k="abc", attempt=1)
    log.close()
    assert first["schema"] == EVENTS_SCHEMA
    assert (first["seq"], second["seq"]) == (0, 1)
    assert first["run"] == second["run"] == "runid42"
    assert second["k"] == "abc"
    assert isinstance(first["ts"], float)
    on_disk = read_events(log.path)
    assert [r["kind"] for r in on_disk] == ["sweep.start", "trial.dispatch"]


def test_unknown_kind_rejected_loudly(tmp_path):
    log = _log(tmp_path)
    with pytest.raises(ValueError, match="unknown event kind"):
        log.emit("trial.exploded")
    assert log.total == 0


def test_counts_ring_and_total(tmp_path):
    log = _log(tmp_path, ring_size=3)
    log.emit("sweep.start")
    for i in range(5):
        log.emit("trial.dispatch", k=f"d{i}", attempt=1)
    assert log.total == 6
    assert log.counts == {"sweep.start": 1, "trial.dispatch": 5}
    # the ring keeps only the newest ring_size records
    assert [r["k"] for r in log.ring] == ["d2", "d3", "d4"]


def test_canonical_line_strips_exactly_host_fields():
    record = {"schema": 1, "seq": 3, "run": "r", "kind": "trial.complete",
              "k": "abc", "attempt": 1, "ts": 123.456, "pid": 999,
              "ns": 10_000_000}
    line = canonical_line(record)
    parsed = json.loads(line)
    assert set(record) - set(parsed) == set(HOST_FIELDS)
    assert parsed["k"] == "abc" and parsed["seq"] == 3
    # identical modulo host fields => identical canonical form
    other = dict(record, ts=999.0, pid=1, ns=77)
    assert canonical_line(other) == line


def test_read_events_tolerates_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    log = RunEventLog(path, "r")
    log.emit("sweep.start")
    log.emit("sweep.finish", ok=True)
    log.close()
    with open(path, "a") as handle:
        handle.write('{"schema": 1, "seq": 2, "kin')  # kill -9 mid-append
    records = read_events(path)
    assert [r["kind"] for r in records] == ["sweep.start", "sweep.finish"]
    assert read_events(tmp_path / "absent.jsonl") == []


def test_trial_digest_joins_cache_identity():
    a = trial_digest("fn|params|x=1|seed=5", 0)
    b = trial_digest("fn|params|x=1|seed=5", 99)
    assert a == b                    # identity-keyed, not position-keyed
    assert len(a) == 12
    assert trial_digest(None, 7) == "opaque:7"


def test_every_kind_is_emittable(tmp_path):
    log = _log(tmp_path)
    for kind in sorted(EVENT_KINDS):
        log.emit(kind)
    assert log.total == len(EVENT_KINDS)


def test_reopening_truncates_the_previous_runs_log(tmp_path):
    # rerunning into the same --out (how an interrupted sweep finishes)
    # must start a fresh stream -- interleaving two runs would break seq
    # contiguity
    first = _log(tmp_path)
    first.emit("sweep.start")
    first.emit("sweep.finish", ok=True)
    first.close()
    second = _log(tmp_path)
    second.emit("sweep.start")
    second.close()
    records = read_events(second.path)
    assert [r["seq"] for r in records] == [0]
    assert [r["kind"] for r in records] == ["sweep.start"]


def test_failed_emit_leaves_the_tallies_equal_to_the_file(tmp_path):
    # an emit that cannot write (here: on a closed log) must not count:
    # the manifest's telemetry block is built from these tallies
    log = _log(tmp_path)
    log.emit("sweep.start")
    log.close()
    with pytest.raises(ValueError):
        log.emit("sweep.finish", ok=True)
    on_disk = read_events(log.path)
    assert log.total == len(on_disk) == 1
    assert log.counts == {"sweep.start": 1}
    assert list(log.ring) == on_disk
