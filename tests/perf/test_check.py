"""The perf gate: tolerance model, drift detection, delta reporting."""

import json

import pytest

import repro.perf.check as check_mod
from repro.perf import (check_benches, compare, render_report,
                        update_benches, values_match, write_bench)
from repro.perf.probes import PROBES


@pytest.fixture
def fake_probe(monkeypatch):
    """Register a controllable probe named 'fake' (and narrow the registry)."""
    state = {"metrics": {"elapsed_ns": 1000, "rate": 2.5, "sha": "abcd"}}

    def probe():
        return dict(state["metrics"])

    monkeypatch.setitem(PROBES, "fake", probe)
    monkeypatch.setattr(check_mod, "PROBES", {"fake": PROBES["fake"]})
    return state


def test_values_match_tolerances():
    assert values_match(5, 5) and not values_match(5, 6)
    assert values_match("ab", "ab") and not values_match("ab", "ac")
    assert values_match(1.0, 1.0 + 1e-12)
    assert not values_match(1.0, 1.001)
    assert not values_match(True, 1)       # bool is not int here
    assert not values_match(1.0, "1.0")
    assert values_match(0.0, 0.0)


def test_compare_reports_each_kind_of_delta():
    result = compare("x", {"same": 1, "drift": 2, "gone": 3},
                     {"same": 1, "drift": 4, "new": 5})
    assert result.status == "drift"
    kinds = {d.metric: (d.old, d.new) for d in result.deltas}
    assert kinds == {"drift": (2, 4), "gone": (3, None), "new": (None, 5)}
    described = "\n".join(d.describe() for d in result.deltas)
    assert "2 -> 4" in described and "+100.000%" in described
    assert "vanished" in described and "new metric" in described


def test_check_passes_after_update(tmp_path, fake_probe):
    update_benches(tmp_path, names=["fake"])
    report = check_benches(tmp_path, names=["fake"])
    assert report.ok and report.deltas == []


def test_check_detects_probe_drift(tmp_path, fake_probe):
    update_benches(tmp_path, names=["fake"])
    fake_probe["metrics"]["elapsed_ns"] = 1300
    report = check_benches(tmp_path, names=["fake"])
    assert not report.ok
    assert [d.metric for d in report.deltas] == ["elapsed_ns"]
    rendered = render_report(report)
    assert "1000 -> 1300" in rendered and "FAILED" in rendered


def test_missing_and_empty_baselines_fail(tmp_path, fake_probe):
    report = check_benches(tmp_path, names=["fake"])
    assert not report.ok and report.checks[0].status == "missing"
    write_bench(tmp_path, "fake", {})
    report = check_benches(tmp_path, names=["fake"])
    assert not report.ok and report.checks[0].status == "empty"
    rendered = render_report(report)
    assert "perf update" in rendered


def test_stray_baseline_files_fail_the_full_gate(tmp_path, fake_probe):
    update_benches(tmp_path)            # full registry = just "fake" here
    write_bench(tmp_path, "bogus", {"x": 1})
    report = check_benches(tmp_path)
    assert not report.ok
    assert report.unknown_files == ["BENCH_bogus.json"]
    assert "no matching probe" in render_report(report)


def test_summary_separates_missing_from_stray(tmp_path, fake_probe,
                                              monkeypatch):
    # registry = {fake, ghost}; only "fake" gets stray company on disk
    monkeypatch.setitem(PROBES, "ghost", lambda: {"x": 1})
    monkeypatch.setattr(check_mod, "PROBES",
                        {"fake": PROBES["fake"], "ghost": PROBES["ghost"]})
    update_benches(tmp_path, names=["fake"])          # ghost stays missing
    write_bench(tmp_path, "zombie", {"x": 1})         # stray: no probe
    report = check_benches(tmp_path)
    assert report.missing == ["ghost"]
    assert report.unknown_files == ["BENCH_zombie.json"]
    summary = render_report(report).splitlines()[-1]
    assert "1 baseline(s) missing (ghost)" in summary
    assert "1 stray file(s) (BENCH_zombie.json)" in summary
    assert "FAILED" in summary


def test_report_json_schema(tmp_path, fake_probe):
    update_benches(tmp_path, names=["fake"])
    fake_probe["metrics"]["rate"] = 9.0
    report = check_benches(tmp_path)
    doc = check_mod.report_json(report)
    assert doc["schema"] == 1
    assert doc["ok"] is False
    assert (doc["passed"], doc["total"]) == (0, 1)
    assert doc["missing"] == [] and doc["stray_files"] == []
    (fam,) = doc["families"]
    assert fam["name"] == "fake" and fam["status"] == "drift"
    assert fam["deltas"] == [{"metric": "rate", "old": 2.5, "new": 9.0}]
    json.dumps(doc)                    # must be JSON-serializable as-is


def test_report_json_on_clean_gate(tmp_path, fake_probe):
    update_benches(tmp_path, names=["fake"])
    doc = check_mod.report_json(check_benches(tmp_path))
    assert doc["ok"] is True and doc["passed"] == doc["total"] == 1
    assert doc["families"][0]["deltas"] == []
