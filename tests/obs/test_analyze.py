"""Analyzer reconstruction: golden files, determinism, roundtrip.

The golden test pins the full analyzer output for a tiny seeded run
(one pair: a ``send-0``/``recv-0`` thread duo, four messages through
one CRI and one matching lock).  Its CSVs under ``golden/`` are
committed bytes: any change to message reconstruction, critical-path
extraction or blame attribution shows up as a reviewable diff, and two
same-seed runs must reproduce them byte-identically.
"""

import pathlib

import pytest

from repro.core import ThreadingConfig
from repro.obs.analyze import analyze_file, analyze_model, analyze_tracer, from_tracer
from repro.obs.export import save_trace
from repro.obs.scenarios import traced_run
from repro.obs.tracer import Tracer
from repro.workloads import MultirateConfig, run_multirate

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def tiny_traced_run(seed: int = 1):
    """One-pair multirate run (2 worker threads, 4 messages), traced."""
    captured = {}

    def instrument(sched, world):
        captured["tracer"] = Tracer(sched)

    run_multirate(
        MultirateConfig(pairs=1, window=4, windows=1, seed=seed),
        threading=ThreadingConfig(num_instances=1, assignment="dedicated",
                                  progress="serial"),
        instrument=instrument)
    tracer = captured["tracer"]
    tracer.detach()
    return tracer


@pytest.fixture(scope="module")
def tiny_analysis():
    return analyze_tracer(tiny_traced_run(), name="tiny")


def test_tiny_run_reconstructs_every_message(tiny_analysis):
    messages = tiny_analysis.messages
    assert len(messages) == 4
    assert all(m.total_ns is not None for m in messages)
    assert [m.seq for m in messages] == [0, 1, 2, 3]
    assert {m.sender_label for m in messages} == {"send-0"}
    for m in messages:
        assert m.total_ns == (m.sender_ns + m.transfer_ns + m.match_ns
                              + m.queue_wait_ns)


def test_tiny_run_critical_path_ends_at_last_delivery(tiny_analysis):
    segments = tiny_analysis.segments
    assert segments, "critical path is empty"
    last_delivery = max(m.delivered_ns for m in tiny_analysis.messages)
    assert segments[-1].end_ns == last_delivery
    # chronological and non-overlapping
    for a, b in zip(segments, segments[1:]):
        assert a.end_ns <= b.start_ns


def test_tiny_run_blames_the_expected_locks(tiny_analysis):
    labels = {lock.label for lock in tiny_analysis.locks}
    assert {"p0/cri-0", "p1/cri-0", "p1/match-c1"} <= labels


@pytest.mark.parametrize("artifact", ["messages", "critical", "blame",
                                      "locks"])
def test_golden_csvs_are_stable(tiny_analysis, artifact):
    golden = (GOLDEN / f"tiny.{artifact}.csv").read_text()
    assert getattr(tiny_analysis, f"{artifact}_csv")() == golden


def test_same_seed_analysis_is_byte_identical(tiny_analysis):
    again = analyze_tracer(tiny_traced_run(), name="tiny")
    assert again.messages_csv() == tiny_analysis.messages_csv()
    assert again.critical_csv() == tiny_analysis.critical_csv()
    assert again.blame_csv() == tiny_analysis.blame_csv()
    assert again.locks_csv() == tiny_analysis.locks_csv()
    assert again.report() == tiny_analysis.report()


def test_trace_json_roundtrip_matches_live_analysis(tmp_path, tiny_analysis):
    path = tmp_path / "tiny.json"
    save_trace(tiny_traced_run(), path)
    from_file = analyze_file(path)
    assert from_file.messages_csv() == tiny_analysis.messages_csv()
    assert from_file.critical_csv() == tiny_analysis.critical_csv()
    assert from_file.blame_csv() == tiny_analysis.blame_csv()


def test_fig3a_scenario_completes_all_messages():
    run = traced_run("fig3a")
    analysis = analyze_tracer(run.tracer, name="fig3a")
    assert len(analysis.messages) == 1024
    assert all(m.outcome != "unmatched" for m in analysis.messages)
    assert analysis.segments[-1].end_ns <= run.elapsed_ns


def test_rma_run_falls_back_to_span_critical_path():
    run = traced_run("fig6")
    analysis = analyze_tracer(run.tracer, name="fig6")
    assert analysis.messages == []        # one-sided traffic: no sends
    assert analysis.segments              # still walks a dependency chain


def test_all_spans_are_closed_and_non_negative():
    model = from_tracer(tiny_traced_run())
    assert all(s.dur_ns >= 0 for s in model.spans)
    analysis = analyze_model(model, name="closed")
    assert analysis.messages
