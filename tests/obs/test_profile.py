"""Host-time profiler: layer table, cProfile aggregation, deterministic reports."""

import cProfile
import importlib.util
import json
import pathlib
from dataclasses import dataclass

import pytest

from repro.obs.profile import (LAYERS, PACKAGE_LAYER, REPRO_DIR, aggregate,
                               counters_text, function_rows, layer_of,
                               profile_report, profile_run, shares)
from repro.obs.scenarios import representative_run

REPRO = pathlib.Path(REPRO_DIR)


def test_every_package_has_a_layer():
    packages = sorted(p.name for p in REPRO.iterdir()
                      if (p / "__init__.py").is_file())
    assert packages, "no packages found under src/repro"
    assert sorted(PACKAGE_LAYER) == packages
    assert set(PACKAGE_LAYER.values()) <= set(LAYERS)


def test_bench_layer_table_equals_the_src_table():
    # bench/layers.py keeps its own copy of the table until it imports
    # this one; the copies must not drift apart meanwhile
    path = REPRO.parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.LAYERS == LAYERS
    assert bench.PACKAGE_LAYER == PACKAGE_LAYER


def test_files_map_to_layers():
    assert layer_of("~") == "builtins"
    assert layer_of(str(REPRO / "mpi" / "rma" / "window.py")) == "mpi.rma"
    assert layer_of(str(REPRO / "mpi" / "matching.py")) == "mpi"
    assert layer_of(str(REPRO / "util" / "stats.py")) == "other"
    assert layer_of(str(REPRO / "cli.py")) == "other"
    assert layer_of(json.__file__) == "stdlib"
    assert layer_of("<frozen importlib._bootstrap>") == "stdlib"


def test_aggregate_counts_cross_layer_calls():
    from repro.simthread.scheduler import Delay

    def body():
        for _ in range(5):
            Delay(100)
        json.dumps({"x": 1})

    prof = cProfile.Profile()
    prof.runcall(body)
    totals, edges = aggregate(prof.getstats())
    assert list(totals) == list(LAYERS)
    assert totals["simthread"]["calls"] == 5
    # the five Delay() calls come from this test module ("other")
    assert totals["simthread"]["calls_in"] == 5
    assert edges["other>simthread"] == 5
    assert totals["stdlib"]["calls_in"] >= 1
    assert sum(shares(totals).values()) == pytest.approx(1.0)


@dataclass
class _Left:
    x: int


@dataclass
class _Right:
    y: int


def test_aggregate_sums_generated_functions_that_share_a_key():
    def body():
        for i in range(3):
            _Left(i)
        for i in range(5):
            _Right(i)

    prof = cProfile.Profile()
    prof.runcall(body)
    entries = prof.getstats()
    inits = [e for e in entries if getattr(e.code, "co_name", "") == "__init__"]
    assert len(inits) == 2          # one code object per dataclass
    rows = {row["name"]: row for row in function_rows(entries)}
    assert rows["<string>:__init__"]["calls"] == 8
    assert aggregate(entries)[0]["other"]["calls"] == 8 + 1   # + body()


def test_profile_run_unknown_experiment():
    with pytest.raises(KeyError):
        profile_run("fig99")


@pytest.fixture(scope="module")
def micro_profile():
    """One profiled pinned-seed micro run, shared by the checks below."""
    return profile_run("fig3a", micro=True)


def test_profile_matches_uninstrumented_run(micro_profile):
    _, elapsed = representative_run("fig3a", micro=True)
    assert micro_profile.elapsed_ns == elapsed


def test_scheduler_counters_are_consistent(micro_profile):
    sched = micro_profile.sched
    assert sched["heap_pushes"] == sched["heap_pops"]
    assert sched["spawns"] > 0


def test_lock_rows_cover_the_matching_lock(micro_profile):
    names = [r["name"] for r in micro_profile.locks]
    assert "p1/match-c1" in names


def test_profile_lock_table_leads_with_the_busy_locks():
    # fig6 micro: no lock waits, so the hold_ns tie-break must lift the
    # four active CRIs above the idle ones that sort first by name
    report = profile_report(profile_run("fig6", micro=True))
    table = report.split("[locks top 12 by wait_ns, then hold_ns]\n")[1]
    rows = table.split("\n\n")[0].splitlines()[1:]
    assert len(rows) == 12
    assert sorted(row.split()[0] for row in rows[:4]) \
        == ["p0/cri-0", "p0/cri-1", "p0/cri-2", "p0/cri-3"]


def test_counters_text_is_deterministic_across_runs(micro_profile):
    again = profile_run("fig3a", micro=True)
    assert counters_text(micro_profile) == counters_text(again)


def test_profile_report_mentions_host_columns(micro_profile):
    report = profile_report(micro_profile)
    assert "host" in report and "fig3a" in report
    assert "[locks" in report and "[functions" in report
    table = report.split("[layers]")[1].split("\n\n")[0].splitlines()
    assert table[1].split() == ["layer", "share", "calls", "calls_in"]
    assert [row.split()[0] for row in table[2:]] == list(LAYERS)


def test_counters_text_excludes_host_ns(micro_profile):
    text = counters_text(micro_profile)
    assert "[layers]" in text and "calls_in" in text
    assert "%" not in text            # no layer shares: host time
    assert "host_ns" not in text
    assert "self_ns" not in text


def test_seed_changes_the_profile():
    other = profile_run("fig3a", seed=2, micro=True)
    base = profile_run("fig3a", seed=1, micro=True)
    assert other.elapsed_ns != base.elapsed_ns
