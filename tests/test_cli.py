"""CLI behaviour (in-process; subprocess start-up is covered by examples).

The last test drives ``python -m repro`` itself: only the entry point
decides how a closed output pipe ends the process.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main, sweep_id

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

from lint_events import lint_dir  # noqa: E402


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("table1", "fig3a", "fig5", "fig7", "ext-msgsize"):
        assert exp_id in out


def test_testbeds(capsys):
    assert main(["testbeds"]) == 0
    out = capsys.readouterr().out
    assert "alembert" in out and "trinitite-knl" in out
    assert "Cray Aries" in out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    assert "Testbeds configuration" in capsys.readouterr().out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_with_output_dir(tmp_path, capsys, monkeypatch):
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    assert main(["run", "fig3a", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig3a.txt").exists()
    assert (tmp_path / "fig3a.csv").read_text().startswith("fig,series,x,mean,std")


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_trace_writes_valid_chrome_json(tmp_path, capsys):
    import json
    out = tmp_path / "fig6.json"
    assert main(["trace", "fig6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["otherData"]["generator"] == "repro.obs"
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    printed = capsys.readouterr().out
    assert "perfetto" in printed and "trace report" in printed


def test_trace_with_metrics_interval(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["trace", "fig6", "--out", str(out),
                 "--metrics-interval", "50000"]) == 0
    csv = (tmp_path / "t.metrics.csv").read_text()
    assert csv.startswith("t_ns,")
    assert len(csv.splitlines()) >= 2
    assert "queue depths" in capsys.readouterr().out


def test_trace_unknown_experiment(capsys):
    assert main(["trace", "fig99"]) == 2
    assert "no traced scenario" in capsys.readouterr().err


def test_non_positive_metrics_interval_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "fig6", "--metrics-interval", "0"])
    assert "positive" in capsys.readouterr().err


def test_run_chaos_with_drop_rate(tmp_path, capsys, monkeypatch):
    import repro.experiments.chaos as chaos
    monkeypatch.setattr(chaos, "DESIGNS", (("concurrent, 10 CRIs",
                                            "concurrent", 10),))
    assert main(["run", "chaos", "--drop-rate", "0.04",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Message rate under packet loss" in out
    assert "retransmits" in out and "degradation_ratio" in out
    csv = (tmp_path / "chaos.csv").read_text()
    # --drop-rate R sweeps (0, R/2, R)
    for x in ("0.0,", "0.02,", "0.04,"):
        assert f"chaos,concurrent, 10 CRIs,{x}" in csv


def test_drop_rate_rejected_for_other_experiments(tmp_path, capsys):
    # rejected before telemetry starts: no half-written status.json
    for exp in ("fig3a", "all"):
        out = tmp_path / exp
        assert main(["run", exp, "--drop-rate", "0.1",
                     "--out", str(out)]) == 2
        assert "only applies to the 'chaos'" in capsys.readouterr().err
        assert not (out / "telemetry").exists()


def test_out_of_range_drop_rate_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "chaos", "--drop-rate", "1.5"])
    assert "must be in [0, 1]" in capsys.readouterr().err


def test_run_with_jobs_matches_serial_bytes(tmp_path, capsys, monkeypatch):
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1, 2))

    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "fig3a", "--no-cache", "--out", str(serial_dir)]) == 0
    assert main(["run", "fig3a", "--no-cache", "--jobs", "4",
                 "--out", str(parallel_dir)]) == 0
    assert ((parallel_dir / "fig3a.csv").read_bytes()
            == (serial_dir / "fig3a.csv").read_bytes())
    assert ((parallel_dir / "fig3a.txt").read_bytes()
            == (serial_dir / "fig3a.txt").read_bytes())
    out = capsys.readouterr().out
    assert "jobs=4" in out


def test_run_warm_cache_recomputes_nothing(tmp_path, capsys, monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1, 2))
    monkeypatch.setenv("REPRO_TRIAL_CACHE", str(tmp_path / "cache"))

    assert main(["run", "ext-modes", "--out", str(tmp_path / "a")]) == 0
    cold = capsys.readouterr().out
    assert "0 cache hits" in cold
    assert main(["run", "ext-modes", "--out", str(tmp_path / "b")]) == 0
    warm = capsys.readouterr().out
    assert "0 computed" in warm
    assert ((tmp_path / "b" / "ext-modes.csv").read_bytes()
            == (tmp_path / "a" / "ext-modes.csv").read_bytes())


def test_run_writes_engine_metrics_csv(tmp_path, monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))
    assert main(["run", "ext-modes", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "engine.metrics.csv").read_text()
    assert csv.startswith("trials,")
    assert len(csv.splitlines()) == 2


def test_run_cache_defaults_under_out_dir(tmp_path, monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))
    monkeypatch.delenv("REPRO_TRIAL_CACHE")
    assert main(["run", "ext-modes", "--out", str(tmp_path)]) == 0
    assert list((tmp_path / ".cache").glob("*/*.json"))


def test_no_cache_leaves_no_cache_dir(tmp_path, monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))
    assert main(["run", "ext-modes", "--no-cache", "--out", str(tmp_path)]) == 0
    assert not (tmp_path / ".cache").exists()


def test_non_positive_jobs_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig3a", "--jobs", "0"])
    assert "positive" in capsys.readouterr().err


def test_rerun_replays_the_cache(tmp_path, capsys, monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1, 2))

    assert main(["run", "ext-modes", "--out", str(tmp_path / "a")]) == 0
    assert "0 cache hits" in capsys.readouterr().out
    assert main(["run", "ext-modes", "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "0 computed" in out and "6 cache hits" in out
    assert ((tmp_path / "b" / "ext-modes.csv").read_bytes()
            == (tmp_path / "a" / "ext-modes.csv").read_bytes())


def test_run_shards_suppress_artifacts_and_merge(tmp_path, capsys,
                                                 monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1, 2))

    # clean reference from its own cache
    monkeypatch.setenv("REPRO_TRIAL_CACHE", str(tmp_path / "ref-cache"))
    assert main(["run", "ext-modes", "--out", str(tmp_path / "ref")]) == 0

    monkeypatch.setenv("REPRO_TRIAL_CACHE", str(tmp_path / "ci-cache"))
    for k in (1, 2):
        shard_out = tmp_path / f"shard{k}"
        assert main(["run", "ext-modes", "--shard", f"{k}/2",
                     "--out", str(shard_out)]) == 0
        printed = capsys.readouterr().out
        assert "artifacts suppressed" in printed
        if k == 1:
            assert "shard 1/2 skipped=3" in printed
        else:
            # sequential shards share the cache, so shard 2 hits shard
            # 1's completions instead of skipping them
            assert "3 cache hits, 3 computed" in printed
        assert not (shard_out / "ext-modes.csv").exists()
        assert (shard_out / "engine.metrics.csv").exists()

    merged = tmp_path / "merged"
    assert main(["run", "ext-modes", "--out", str(merged)]) == 0
    assert "6 cache hits, 0 computed" in capsys.readouterr().out
    assert ((merged / "ext-modes.csv").read_bytes()
            == (tmp_path / "ref" / "ext-modes.csv").read_bytes())


def test_run_flaky_workers_byte_identical(tmp_path, capsys, monkeypatch):
    import json
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))

    clean = tmp_path / "clean"
    assert main(["run", "ext-modes", "--no-cache", "--out", str(clean)]) == 0
    chaotic = tmp_path / "chaotic"
    assert main(["run", "ext-modes", "--no-cache", "--jobs", "2",
                 "--flaky-workers", "1.0", "--trial-timeout", "1",
                 "--out", str(chaotic)]) == 0
    out = capsys.readouterr().out
    assert "supervision:" in out
    assert ((chaotic / "ext-modes.csv").read_bytes()
            == (clean / "ext-modes.csv").read_bytes())
    engine = json.loads((chaotic / "manifest.json").read_text())["engine"]
    assert engine["worker_deaths"] + engine["timeouts"] > 0
    assert engine["retries"] > 0


def test_shard_requires_cache(capsys):
    assert main(["run", "ext-modes", "--shard", "1/2", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "--shard" in err and "rerun without --shard" in err


def test_flaky_workers_requires_parallel_jobs(capsys):
    assert main(["run", "ext-modes", "--flaky-workers", "0.2"]) == 2
    assert "--jobs >= 2" in capsys.readouterr().err


def test_malformed_shard_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "ext-modes", "--shard", "3/2"])
    assert "1 <= k <= N" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "ext-modes", "--shard", "banana"])
    assert "k/N" in capsys.readouterr().err


def test_run_manifest_records_crash_safety_params(tmp_path, monkeypatch):
    import json
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))
    assert main(["run", "ext-modes", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["params"] == {"quick": True, "jobs": 1, "cache": True,
                                  "retries": 2}
    assert manifest["engine"]["shard"] is None
    assert "resumed" not in manifest["engine"]


def test_sweep_id_depends_on_sweep_identity(monkeypatch):
    from repro.engine import fingerprint as fingerprint_mod

    base = sweep_id(["a", "b"], {"quick": True})
    assert sweep_id(["b", "a"], {"quick": True}) == base  # order-free
    assert sweep_id(["a"], {"quick": True}) != base
    assert sweep_id(["a", "b"], {"quick": False}) != base
    monkeypatch.setattr(fingerprint_mod, "core_fingerprint",
                        lambda: "after-an-edit")
    assert sweep_id(["a", "b"], {"quick": True}) != base  # edited tree


def test_analyze_experiment_prints_report(capsys):
    assert main(["analyze", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "analysis: fig6" in out
    assert "critical path:" in out


def test_analyze_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "fig6", "--out", str(out_dir)]) == 0
    for suffix in ("messages.csv", "critical.csv", "blame.csv",
                   "locks.csv", "report.txt"):
        assert (out_dir / f"fig6.{suffix}").exists()


def test_analyze_trace_file_without_rerun(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["trace", "fig6", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(trace)]) == 0
    assert "analysis: t" in capsys.readouterr().out


def test_committed_analysis_exhibits_reproduce(tmp_path, capsys):
    # the RUNBOOK commands rewrite results/analysis/ byte for byte
    import pathlib
    committed = pathlib.Path(__file__).resolve().parents[1] / "results" / "analysis"
    assert main(["analyze", "fig3a", "--out", str(tmp_path)]) == 0
    assert main(["analyze", "chaos", "--out", str(tmp_path), "--top", "20"]) == 0
    names = sorted(p.name for p in committed.iterdir())
    assert len(names) == 10
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_analyze_unknown_experiment(capsys):
    assert main(["analyze", "fig99"]) == 2
    assert "no traced scenario" in capsys.readouterr().err


def test_analyze_missing_trace_file(capsys):
    assert main(["analyze", "gone.json"]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_perf_update_then_check_round_trip(tmp_path, capsys):
    results = tmp_path / "results"
    assert main(["perf", "update", "--results", str(results),
                 "--only", "fig6"]) == 0
    assert main(["perf", "check", "--results", str(results),
                 "--only", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "updated fig6" in out
    assert "1/1 families pass" in out


def test_perf_check_fails_on_drift(tmp_path, capsys):
    import json
    results = tmp_path / "results"
    assert main(["perf", "update", "--results", str(results),
                 "--only", "fig6"]) == 0
    path = results / "BENCH_fig6.json"
    doc = json.loads(path.read_text())
    doc["deterministic"]["elapsed_ns"] += 7
    path.write_text(json.dumps(doc))
    assert main(["perf", "check", "--results", str(results),
                 "--only", "fig6"]) == 1
    out = capsys.readouterr().out
    assert "drifted" in out and "FAILED" in out


def test_perf_list_shows_committed_baselines(tmp_path, capsys):
    results = tmp_path / "results"
    assert main(["perf", "update", "--results", str(results),
                 "--only", "fig7"]) == 0
    assert main(["perf", "list", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "deterministic metrics" in out


def test_perf_unknown_family_rejected(capsys):
    assert main(["perf", "check", "--only", "nope"]) == 2
    assert "unknown bench families" in capsys.readouterr().err


def test_perf_check_json_output(tmp_path, capsys):
    import json
    results = tmp_path / "results"
    assert main(["perf", "update", "--results", str(results),
                 "--only", "fig6"]) == 0
    capsys.readouterr()
    assert main(["perf", "check", "--results", str(results),
                 "--only", "fig6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["schema"] == 1
    assert doc["families"][0]["name"] == "fig6"


def test_profile_prints_deterministic_counters(capsys):
    assert main(["profile", "fig3a", "--micro"]) == 0
    out = capsys.readouterr().out
    assert "host profile: fig3a" in out
    assert "[scheduler counters - deterministic]" in out
    assert "[locks" in out and "[layers]" in out


def test_profile_out_writes_artifacts_and_manifest(tmp_path, capsys):
    import json
    assert main(["profile", "fig3a", "--micro",
                 "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig3a.counters.txt", "fig3a.profile.txt", "manifest.json"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == ["repro", "profile", "fig3a"]
    assert manifest["params"] == {"micro": True, "top": 12}
    assert manifest["seed"] == 1 and "code_fingerprint" in manifest


def test_profile_unknown_experiment(capsys):
    assert main(["profile", "fig99"]) == 2
    assert "no traced scenario" in capsys.readouterr().err


def test_run_out_writes_manifest(tmp_path, monkeypatch):
    import json
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    assert main(["run", "fig3a", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiments"] == ["fig3a"]
    assert manifest["params"]["quick"] is True
    assert manifest["engine"]["trials"] > 0
    assert manifest["engine"]["jobs"] == 1


def test_run_manifest_counters_merge_across_jobs(tmp_path, monkeypatch):
    import json
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))

    def counters(jobs):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "fig3a", "--no-cache", "--jobs", str(jobs),
                     "--out", str(out)]) == 0
        engine = json.loads((out / "manifest.json").read_text())["engine"]
        return {k: engine[k] for k in
                ("trials", "duplicates", "cache_hits", "cache_misses",
                 "uncacheable")}

    assert counters(4) == counters(1)


def test_committed_baselines_pass_the_gate(capsys):
    # the acceptance criterion: a fresh checkout's committed baselines
    # match recomputation (fast families only; CI runs the full gate)
    import pathlib
    results = pathlib.Path(__file__).resolve().parents[1] / "results"
    assert main(["perf", "check", "--results", str(results),
                 "--only", "fig6", "--only", "simcore",
                 "--only", "table1"]) == 0
    assert "3/3 families pass" in capsys.readouterr().out


def test_run_with_out_writes_live_telemetry(tmp_path, capsys, monkeypatch):
    import json
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    assert main(["run", "fig3a", "--out", str(tmp_path)]) == 0
    telemetry = tmp_path / "telemetry"
    assert (telemetry / "events.jsonl").exists()
    assert (telemetry / "metrics.prom").exists()
    status = json.loads((telemetry / "status.json").read_text())
    assert status["state"] == "finished"
    assert status["progress"]["done"] == status["progress"]["planned"] > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["schema"] == 5
    assert manifest["telemetry"]["dir"] == "telemetry"
    assert manifest["telemetry"]["events"]["sweep.finish"] == 1
    assert "telemetry:" in capsys.readouterr().out


def test_no_telemetry_flag_disables_the_layer(tmp_path, monkeypatch):
    import json
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    assert main(["run", "fig3a", "--no-telemetry",
                 "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "telemetry").exists()
    assert "telemetry" not in json.loads(
        (tmp_path / "manifest.json").read_text())


def test_run_without_out_has_no_telemetry_side_effects(capsys):
    assert main(["run", "table1"]) == 0
    assert "telemetry:" not in capsys.readouterr().out


def test_retry_exhaustion_exits_3_with_postmortem(tmp_path, capsys,
                                                  monkeypatch):
    import json
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1,))
    assert main(["run", "ext-modes", "--no-cache", "--jobs", "2",
                 "--flaky-workers", "1.0", "--retries", "0",
                 "--trial-timeout", "2", "--out", str(tmp_path)]) == 3
    bundle = tmp_path / "telemetry" / "postmortem"
    assert (bundle / "postmortem.json").exists()
    assert json.loads(
        (bundle / "postmortem.json").read_text())["reason"] \
        == "retry-exhaustion"
    status = json.loads(
        (tmp_path / "telemetry" / "status.json").read_text())
    assert status["state"] == "failed"
    err = capsys.readouterr().err
    assert "run failed" in err and "postmortem" in err


def test_failing_manifest_write_ends_the_log_in_a_crash_postmortem(
        tmp_path, monkeypatch):
    import json
    import repro.engine.manifest as manifest_module
    from repro.obs.live import EVENTS_NAME, read_events

    def full_disk(out_dir, doc):
        raise OSError("disk full")

    monkeypatch.setattr(manifest_module, "write_manifest", full_disk)
    with pytest.raises(OSError, match="disk full"):
        main(["run", "table1", "--out", str(tmp_path)])
    telemetry = tmp_path / "telemetry"
    records = read_events(telemetry / EVENTS_NAME)
    assert [r["kind"] for r in records].count("sweep.finish") == 1
    assert records[-1]["kind"] == "postmortem"
    assert records[-1]["reason"] == "crash"
    status = json.loads((telemetry / "status.json").read_text())
    assert status["state"] == "failed"
    problems = []
    assert "state=failed," in lint_dir(telemetry, problems)
    assert problems == []


def test_top_once_on_a_finished_run(tmp_path, capsys, monkeypatch):
    import json
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    assert main(["run", "fig3a", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["top", str(tmp_path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "state=finished" in out and "trials" in out
    assert main(["top", str(tmp_path), "--once", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["state"] == "finished"


def test_top_once_without_heartbeat_exits_1(tmp_path, capsys):
    assert main(["top", str(tmp_path), "--once"]) == 1
    assert "waiting for status.json" in capsys.readouterr().out


def test_closed_stdout_pipe_exits_without_traceback():
    # ``python -m repro testbeds | head -0``: the reader is gone before
    # the first write, so that write fails with EPIPE.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", "testbeds"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
