"""Host-time profiler: call accumulator, phases, deterministic reports."""

import pytest

from repro.obs.profile import DEFAULT_PHASES, profile_run
from repro.obs.profile.hostprof import HostProfiler, code_key
from repro.obs.profile.report import counters_text, folded_text, profile_report
from repro.obs.scenarios import representative_run


def leaf():
    """A tiny call-tree leaf for profiler unit tests."""
    return sum(range(10))


def mid():
    """Calls leaf twice."""
    return leaf() + leaf()


def test_hostprofiler_counts_calls_and_builds_stacks():
    prof = HostProfiler()
    with prof:
        mid()
        leaf()
    rows = {r["name"]: r for r in prof.function_rows()}
    mid_key = next(k for k in rows if k.endswith(":mid"))
    leaf_key = next(k for k in rows if k.endswith(":leaf"))
    assert rows[mid_key]["calls"] == 1
    assert rows[leaf_key]["calls"] == 3
    assert rows[leaf_key]["self_ns"] <= rows[leaf_key]["cum_ns"]
    stacks = [r["stack"] for r in prof.folded_rows()]
    assert any(s.endswith(f"{mid_key};{leaf_key}") for s in stacks)


def test_hostprofiler_nests_cum_time():
    prof = HostProfiler()
    with prof:
        mid()
    rows = {r["name"]: r for r in prof.function_rows()}
    mid_row = next(v for k, v in rows.items() if k.endswith(":mid"))
    leaf_row = next(v for k, v in rows.items() if k.endswith(":leaf"))
    assert mid_row["cum_ns"] >= leaf_row["cum_ns"]
    assert mid_row["cum_ns"] >= mid_row["self_ns"]


def test_code_key_normalizes_repro_modules():
    key = code_key(representative_run.__code__)
    assert key == "repro.obs.scenarios:representative_run"
    key2 = code_key(leaf.__code__)
    assert key2.startswith("~") and key2.endswith(":leaf")
    assert " " not in key2 and ";" not in key2


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


def test_phases_partition_the_run(micro_profile):
    phases = micro_profile.phases
    assert len(phases) == DEFAULT_PHASES
    assert phases[0]["start_ns"] == 0
    assert phases[-1]["end_ns"] == micro_profile.elapsed_ns
    assert sum(p["events"] for p in phases) == micro_profile.events_processed
    assert sum(p["gen_steps"] for p in phases) \
        == micro_profile.sched["gen_steps"]


def test_scheduler_counters_are_consistent(micro_profile):
    sched = micro_profile.sched
    assert sched["heap_pushes"] == sched["heap_pops"]
    assert sched["spawns"] > 0
    assert micro_profile.tracer_branches \
        == sum(r["tracer_branches"] for r in micro_profile.locks)


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


def test_folded_stacks_deterministic_modulo_host_ns(micro_profile):
    again = profile_run("fig3a", micro=True)

    def stacks_and_calls(result):
        return [line.rsplit(" ", 1)[0]
                for line in folded_text(result).splitlines()]

    assert stacks_and_calls(micro_profile) == stacks_and_calls(again)


def test_profile_report_mentions_host_columns(micro_profile):
    report = profile_report(micro_profile)
    assert "host" in report and "fig3a" in report
    assert "[locks" in report and "[functions" in report


def test_counters_text_excludes_host_ns(micro_profile):
    text = counters_text(micro_profile)
    assert "tracer_branches" in text
    assert "host_ns" not in text
    assert "self_ns" not in text


def test_seed_changes_the_profile():
    other = profile_run("fig3a", seed=2, micro=True)
    base = profile_run("fig3a", seed=1, micro=True)
    assert other.elapsed_ns != base.elapsed_ns
