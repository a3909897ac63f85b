"""Representative traced runs: the Table II contention story, end to end."""

import json

import pytest

from repro.obs.export import lock_wait_totals, to_chrome_json
from repro.obs.scenarios import traceable_ids, traced_run


def match_lock_wait(tracer) -> int:
    return sum(total for name, total in lock_wait_totals(tracer).items()
               if "/match-c" in name)


def test_traceable_ids_cover_both_workloads():
    ids = traceable_ids()
    assert {"fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c",
            "table2", "fig6", "fig7", "chaos"} == set(ids)
    assert ids == sorted(ids[:-3]) + ["fig6", "fig7", "chaos"]


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="no traced scenario"):
        traced_run("fig99")


def test_concurrent_progress_inflates_match_lock_wait():
    """The acceptance check: under concurrent progress the shared matching
    lock's cumulative contended wait must be at least 2x the serial-progress
    run of the same workload (paper sec. IV-C / Table II)."""
    serial = traced_run("fig3a")
    concurrent = traced_run("fig3b")
    serial_wait = match_lock_wait(serial.tracer)
    concurrent_wait = match_lock_wait(concurrent.tracer)
    assert serial_wait > 0
    assert concurrent_wait >= 2 * serial_wait


def test_rma_scenario_produces_protocol_spans():
    run = traced_run("fig6")
    names = {s[1] for s in run.tracer.spans}
    assert "rma.put" in names and "rma.flush" in names
    assert run.elapsed_ns > 0
    assert run.metrics is None  # not requested


def test_trace_and_metrics_are_deterministic():
    a = traced_run("fig6", seed=3, metrics_interval_ns=50_000)
    b = traced_run("fig6", seed=3, metrics_interval_ns=50_000)
    assert to_chrome_json(a.tracer) == to_chrome_json(b.tracer)
    assert a.metrics.to_csv() == b.metrics.to_csv()
    assert len(a.metrics.rows) >= 2


def test_trace_false_skips_tracer():
    run = traced_run("fig6", metrics_interval_ns=100_000, trace=False)
    assert run.tracer is None
    assert run.metrics is not None and run.metrics.rows


def test_chaos_scenario_records_fault_instants():
    run = traced_run("chaos")
    assert run.result.faults is not None
    assert run.result.faults["drops"] > 0
    fault_tracks = {t.tid for t in run.tracer.tracks() if t.kind == "fault"}
    assert len(fault_tracks) == 1
    names = {i[1] for i in run.tracer.instants if i[0] in fault_tracks}
    assert "drop" in names and "retransmit" in names


@pytest.mark.parametrize("exp", ["fig3b", "chaos"])
def test_same_seed_trace_is_byte_identical(exp):
    a = traced_run(exp, seed=4)
    b = traced_run(exp, seed=4)
    assert to_chrome_json(a.tracer) == to_chrome_json(b.tracer)


def test_export_loads_as_chrome_trace():
    run = traced_run("fig3a")
    doc = json.loads(to_chrome_json(run.tracer))
    assert doc["otherData"]["virtual_time_ns"] == run.elapsed_ns
    kinds = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "i", "C"} <= kinds
