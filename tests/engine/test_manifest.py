"""Run provenance manifests: schema, IO, worker-aggregated counters."""

from repro.engine import (Engine, build_manifest, engine_provenance,
                          load_manifest, use_engine, write_manifest)
from repro.engine.fingerprint import core_fingerprint
from repro.engine.manifest import MANIFEST_SCHEMA
from repro.obs.live import LiveTelemetry


def run_small_exhibit():
    from repro.experiments.table2 import run_table2

    return run_table2(quick=True, pairs=4)


def test_build_manifest_records_provenance():
    doc = build_manifest(command=["repro", "run", "fig3a"],
                         experiments=["fig3a"],
                         params={"quick": True}, seed=1, wall_s=1.23456)
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["command"] == ["repro", "run", "fig3a"]
    assert doc["experiments"] == ["fig3a"]
    assert doc["code_fingerprint"] == core_fingerprint()
    assert doc["seed"] == 1
    assert doc["wall_s"] == 1.235
    assert "engine" not in doc


def test_manifest_round_trip(tmp_path):
    doc = build_manifest(command=["x"], experiments=["e"])
    path = write_manifest(tmp_path, doc)
    assert path.name == "manifest.json"
    assert path.read_text().endswith("\n")
    assert load_manifest(tmp_path) == doc
    assert load_manifest(tmp_path / "absent") is None


def test_engine_provenance_discards_worker_pids():
    engine = Engine(jobs=1)
    with use_engine(engine):
        run_small_exhibit()
    block = engine_provenance(engine)
    assert block["trials"] > 0
    assert block["workers_used"] == len(block["host"]["workers_busy_ns"])
    assert block["host"]["workers_busy_ns"] \
        == sorted(block["host"]["workers_busy_ns"])
    assert all(isinstance(v, int) for v in block["host"]["workers_busy_ns"])


def test_parallel_counters_merge_to_serial_totals():
    # the acceptance criterion: a --jobs N manifest's deterministic
    # counters equal the serial run's (host block excluded)
    serial, parallel = Engine(jobs=1), Engine(jobs=4)
    with use_engine(serial):
        run_small_exhibit()
    with use_engine(parallel):
        run_small_exhibit()

    def deterministic(engine):
        block = engine_provenance(engine)
        return {name: block[name] for name in engine.counters.deterministic()}

    assert deterministic(parallel) == deterministic(serial)
    assert deterministic(serial) == serial.counters.deterministic()


def test_manifest_schema_records_telemetry_block():
    doc = build_manifest(command=["x"], experiments=["e"],
                         telemetry={"dir": "telemetry", "events_total": 4,
                                    "events": {"sweep.start": 1},
                                    "postmortem": None})
    assert doc["schema"] == MANIFEST_SCHEMA == 5
    assert doc["telemetry"]["events_total"] == 4
    assert "telemetry" not in build_manifest(command=["x"], experiments=["e"])


def test_manifest_schema_4_records_served_block():
    served = {"requests": 7, "dedup_hits": 6, "cold_runs": 1}
    doc = build_manifest(command=["x"], experiments=["e"], served=served)
    assert doc["schema"] == MANIFEST_SCHEMA == 5
    assert doc["served"] == served
    assert "served" not in build_manifest(command=["x"], experiments=["e"])


def _telemetry_run(tmp_path, name, jobs):
    tele = LiveTelemetry(tmp_path / name, "run1", experiments=["table2"],
                         jobs=jobs)
    engine = Engine(jobs=jobs, telemetry=tele)
    with use_engine(engine):
        run_small_exhibit()
    tele.sweep_finish(True)
    tele.close()
    return tele.summary()


def test_parallel_telemetry_summary_equals_serial(tmp_path):
    # the satellite criterion: a --jobs N manifest's telemetry block
    # (event counts by kind) equals the serial run's
    serial = _telemetry_run(tmp_path, "serial", jobs=1)
    parallel = _telemetry_run(tmp_path, "parallel", jobs=4)
    serial.pop("dir"), parallel.pop("dir")
    assert parallel == serial
    assert serial["events"]["sweep.finish"] == 1
    assert serial["events"]["trial.complete"] \
        == serial["events"]["trial.dispatch"]
    assert serial["postmortem"] is None
