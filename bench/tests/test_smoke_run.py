"""Tiny end-to-end runs of ``bench/run.py`` (a few trials, one lifetime)."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import service

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def bench(tmp_path, *args, cwd=run.ROOT, script=run.BENCH / "run.py"):
    done = subprocess.run([sys.executable, str(script), "--out", str(tmp_path),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    return done, done.stdout.strip().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["ordered-contended", "rma-flush"])
def test_untraced_smoke_emits_every_end_to_end_metric(tmp_path, workload):
    done, lines = bench(tmp_path, "--workload", workload, "--trials", "3",
                        "--seed", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3
    assert list(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    written = json.loads((tmp_path / f"{workload}.json").read_text())
    assert written["counts"]["op_s"] == 3 and written["counts"]["setup_s"] == 11
    assert len(written["sim_digest"]) == 16


def test_traced_smoke_emits_every_per_layer_metric(tmp_path):
    done, lines = bench(tmp_path, "--workload", "relaxed-rendezvous",
                        "--trials", "5", "--seed", "2", "--trace")
    assert done.returncode == 0, done.stderr
    result = last_json(lines)
    assert result["correct"] and result["attempted"] == 2   # trials 0 and 4
    assert list(result["metrics"]) == PER_LAYER
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["trace.overhead"] > 1
    assert values["simthread.events"] > 0
    spans = (tmp_path / "relaxed-rendezvous.trace.jsonl").read_text().splitlines()
    assert len(spans) == 2
    assert json.loads(spans[0])["layers"]["simthread"]["self_ns"] > 0


def test_one_service_lifetime(tmp_path):
    done, lines = bench(tmp_path, "--workload", "service", "--lifetimes", "1",
                        "--seed", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(lines)
    assert result["correct"] and result["failed"] == 0
    # each exhibit is one job and one submission, plus the request mix
    jobs = len(service.EXHIBITS)
    assert result["attempted"] == 2 * jobs + len(service.KINDS) * service.PER_KIND
    assert list(result["metrics"]) == E2E


def test_traced_service_profiles_every_server_thread(tmp_path):
    done, lines = bench(tmp_path, "--workload", "service", "--lifetimes", "4",
                        "--seed", "1", "--trace")
    assert done.returncode == 0, done.stderr
    result = last_json(lines)
    assert result["correct"] and list(result["metrics"]) == PER_LAYER
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["layer.serve.self_share"] > 0
    assert values["engine.cache_hit_ratio"] == 1.0
    assert values["simthread.events"] == 0
    spans = [json.loads(line) for line in
             (tmp_path / "service.trace.jsonl").read_text().splitlines()]
    jobs = {s["span"] for s in spans if s["name"].startswith("job ")}
    assert len(jobs) == len(service.EXHIBITS)
    served = [s for s in spans if s.get("parent") in jobs]
    assert served and all("layers" in s for s in served)


def test_without_the_program_source_no_result_is_printed(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done, lines = bench(tmp_path / "out", "--workload", "rma-flush",
                        cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
