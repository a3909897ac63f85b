"""The repository benchmark: four workloads, checked outputs, one command.

    python3 bench/run.py [--workload NAME|all] [--seed S] [--seconds N]
                         [--trace [0|1]] [--out DIR]

Each simulator workload runs in a fresh child interpreter
(``simchild.py``) that times calls into the public entry points only;
the ``service`` workload drives ``repro serve`` subprocesses over HTTP
(``service.py``).  Every output is checked (``oracle.py``); every metric
is printed by name with its unit and sample count, a JSON result per
workload is written under ``--out``, and the last line of standard
output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` (the default) the metrics are the end-to-end ones
declared in ``BENCHMARK.json``; with ``--trace 1`` a separate, traced
run reports the per-layer ones and writes ``<workload>.trace.jsonl``.
End-to-end numbers never come from a traced run.  Reported times are at
reference-host speed, sample by sample (``refspeed.py``); result files
keep the raw values too.

The program is run from source: ``src/`` next to ``bench/`` goes on
``PYTHONPATH`` for every child.  Without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

import layers
import metrics
import oracle
import refspeed
import service
import trials

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("ordered-contended", "relaxed-rendezvous", "rma-flush", "service")
DEFAULT_SECONDS = 15
#: fresh-interpreter spawns per run behind ``setup_s`` and the import probes
SETUP_SPAWNS = 11
#: a traced run replays every TRACE_EVERY-th trial / lifetime
TRACE_EVERY = 4
#: whole-run budget; the contract allows 180 s per run
BUDGET_S = 170.0
#: what a workload imports before it can do any work
SIM_IMPORT = "import repro.workloads, repro.experiments.testbeds"
SERVICE_IMPORT = "import repro.cli"
#: per-layer metrics only the service can measure; they read 0 elsewhere
SERVICE_ONLY = ("serve.job_s.p50", "serve.job_s.p90",
                "serve.queue_wait_s.p50", "engine.job_run_s.p50",
                "serve.post_dedup_s.p50", "serve.status_s.p50",
                "serve.artifact_s.p50", "serve.revalidate_s.p50",
                "serve.events_replay_s.p50", "serve.request_s.p50",
                "serve.request_s.p99", "serve.dedup_ratio",
                "engine.cache_hit_ratio", "engine.cold_overhead_share")
#: per-layer counts only the simulator workloads can measure
SIM_COUNTS = ("simthread.events", "simthread.lock.acquisitions",
              "simthread.lock.contended", "simthread.lock.tryfails",
              "simthread.lock.wait_ns", "simthread.sched.events_delay",
              "simthread.sched.events_suspend", "simthread.sched.heap_pushes",
              "simthread.sched.gen_steps", "simthread.sched.wakes",
              "mpi.out_of_sequence", "mpi.unexpected", "mpi.match_time_ns",
              "mpi.rma.flushes")
#: service request kinds -> per-layer metric names
KIND_METRIC = {"dedup": "serve.post_dedup_s.p50", "status": "serve.status_s.p50",
               "artifact": "serve.artifact_s.p50",
               "revalidate": "serve.revalidate_s.p50",
               "events": "serve.events_replay_s.p50"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed operation)."""


# -- child processes ------------------------------------------------------
def child_env() -> dict:
    """Environment for every child: the checkout's ``src`` first.

    Bytecode caching is forced on and output unbuffered, so set-up time
    and pipe reads do not depend on the caller's environment.
    """
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_TRIAL_CACHE", None)
    return env


def time_to_ready(env: dict, statement: str) -> float:
    """Seconds from spawning a fresh interpreter until ``statement`` ran."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", f"{statement}; print('ready', flush=True)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
    return elapsed


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)")


def import_times(env: dict, statement: str) -> tuple[float, float]:
    """``(repro_s, numpy_s)``: cumulative ``-X importtime`` of ``statement``."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60)
    if done.returncode != 0:
        raise BenchError(f"import probe failed: {done.stderr.strip()[-2000:]}")
    repro_us = numpy_us = 0
    for line in done.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        cumulative, indent, name = int(match[1]), match[2], match[3]
        if not indent and (name == "repro" or name.startswith("repro.")):
            repro_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return repro_us / 1e6, numpy_us / 1e6


def setup_samples(env: dict, statement: str, trace: bool) -> dict:
    """``setup_s`` samples, or (traced) ``-X importtime`` probes.

    A host reading (:func:`refspeed.host_reading`) is taken before every
    spawn and after the last.  Returns the raw samples, the same samples
    at reference speed, and the readings.
    """
    readings, samples = [], []
    for _ in range(SETUP_SPAWNS):
        readings.append(refspeed.host_reading())
        samples.append(import_times(env, statement) if trace
                       else time_to_ready(env, statement))
    readings.append(refspeed.host_reading())
    factors = refspeed.interval_factors(readings)
    if trace:
        raw = {"setup.import.repro_s": [s[0] for s in samples],
               "setup.import.numpy_s": [s[1] for s in samples]}
    else:
        raw = {"setup_s": samples}
    return {"raw": raw, "readings": readings,
            "scaled": {name: [x * f for x, f in zip(xs, factors)]
                       for name, xs in raw.items()}}


def medians(samples: dict) -> dict:
    """``{name: median}`` of named sample lists."""
    return {name: metrics.median_or_zero(xs) for name, xs in samples.items()}


# -- simulator workloads --------------------------------------------------
def run_sim(workload: str, args, deadline: float, expected: dict) -> dict:
    """One simulator workload run: set-up probes, then the child's trials.

    ``expected`` holds the pinned trial digests (empty: check only the
    invariants the child tests).
    """
    env = child_env()
    setup = setup_samples(env, SIM_IMPORT, args.trace)
    rounds = trials.rounds_for(args.seconds)
    trial_list = trials.trial_list(workload, args.seed, rounds)
    indices = list(range(len(trial_list)))
    if args.trials is not None:
        indices = indices[:args.trials]
    if args.trace:
        indices = [i for i in indices if i % TRACE_EVERY == 0]
    job = {"trials": [trial_list[i] for i in indices], "indices": indices,
           "trace": bool(args.trace)}
    try:
        done = subprocess.run([sys.executable, str(BENCH / "simchild.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(10.0, deadline - time.monotonic()))
        stdout, stderr, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, stderr, code = exc.stdout or "", "timed out", None
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    by_index = {rec["i"]: rec for rec in lines if "i" in rec}
    tail = [rec for rec in lines if rec.get("done")]

    problems: dict[int, list[str]] = {i: [] for i in indices}
    for i in indices:
        rec = by_index.get(i)
        if rec is None:
            problems[i].append("no record")
        elif "error" in rec:
            problems[i].append(rec["error"])
        else:
            problems[i] += rec["violations"]
    digests = {i: rec["digest"] for i, rec in by_index.items() if "digest" in rec}
    for i, problem in oracle.check_trials(expected, args.seed, digests).items():
        problems[i].append(problem)
    failures = [f"trial {i} ({trials.label(trial_list[i])}): {problem}"
                for i in indices for problem in problems[i]]
    failed = sum(1 for i in indices if problems[i])
    if code != 0 or not tail:
        failures.insert(0, f"child exited {code}: {stderr.strip()[-2000:]}")
        failed = max(failed, 1)
    # the child timed a reference burst before each trial and after the last
    readings = [by_index.get(i, {}).get("probe_s") for i in indices]
    readings.append(tail[0]["probe_s"] if tail else None)
    factor = dict(zip(indices, refspeed.interval_factors(readings)))
    ok = [by_index[i] for i in indices if i in by_index and "host_s" in by_index[i]]
    host = [rec["host_s"] for rec in ok]
    result = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "rounds": rounds,
        "attempted": len(indices), "failed": failed,
        "failures": failures[:50],
        "digests": [digests.get(i) for i in indices],
        "sim_digest": oracle.sim_digest(digests.get(i) for i in indices),
        "samples": {"op_s": host, "reference_s": readings,
                    "setup_reference_s": setup["readings"], **setup["raw"]},
    }
    if args.trace:
        return _sim_layers(result, [rec for rec in ok if "trace" in rec],
                           trial_list, setup)
    events = sum(rec["events"] for rec in ok)

    def trial_metrics(times: list[float]) -> dict:
        return {"op_s.p50": metrics.median_or_zero(times),
                "op_s.p90": metrics.percentile(times, 90) if times else 0.0,
                "work_per_s": events / sum(times) if times else 0.0}

    rss = {"peak_rss_mb": tail[0]["rss_kb"] / 1024 if tail else 0.0}
    result["raw"] = {**medians(setup["raw"]), **trial_metrics(host), **rss}
    result["values"] = {
        **medians(setup["scaled"]),
        **trial_metrics([rec["host_s"] * factor[rec["i"]] for rec in ok]),
        **rss}
    result["counts"] = {"setup_s": SETUP_SPAWNS, "op_s": len(host),
                        "work_per_s": len(host), "peak_rss_mb": 1}
    result["tail_ok"] = metrics.tail_ok(len(host), 90)
    return result


def _sim_layers(result: dict, traced: list[dict], trial_list: list,
                setup: dict) -> dict:
    """Per-layer values and spans of a traced simulator run."""
    totals: dict = {}
    for rec in traced:
        layers.merge(totals, rec["trace"]["layers"])
    counts = {name: sum(rec["trace"]["counts"][name] for rec in traced)
              for name in SIM_COUNTS}
    untraced = sum(rec["trace"]["untraced_s"] for rec in traced)
    # replays of one trial run back to back: their ratio needs no scaling
    overhead = {"trace.overhead": (sum(rec["trace"]["profiled_s"]
                                       for rec in traced) / untraced
                                   if untraced else 0.0)}
    common = {**layer_values(totals), **counts, **overhead,
              **{name: 0 for name in SERVICE_ONLY}}
    result["raw"] = {**common, **medians(setup["raw"])}
    result["values"] = {**common, **medians(setup["scaled"])}
    result["counts"] = {"traced_trials": len(traced),
                        "setup.import": SETUP_SPAWNS}
    workload = result["workload"]
    run_id = f"{workload}/seed{result['seed']}"
    result["spans"] = [
        {"span": f"{workload}/{rec['i']}", "parent": run_id,
         "name": trials.label(trial_list[rec["i"]]),
         "start_s": rec["trace"]["start_s"], "end_s": rec["trace"]["end_s"],
         "layers": _span_layers(rec["trace"]["layers"]),
         "edges": rec["trace"]["edges"]} for rec in traced]
    return result


def layer_values(totals: dict) -> dict:
    """``layer.<L>.self_share`` and ``layer.<L>.calls_in`` for every layer."""
    share = layers.shares(totals) if totals else {}
    values = {}
    for name in layers.LAYERS:
        values[f"layer.{name}.self_share"] = share.get(name, 0.0)
        values[f"layer.{name}.calls_in"] = totals.get(name, {}).get("calls_in", 0)
    return values


def _span_layers(totals: dict) -> dict:
    return {k: {"self_ns": v["self_ns"], "calls": v["calls"]}
            for k, v in totals.items()}


# -- the service workload -------------------------------------------------
def run_service(args, deadline: float, out_dir: pathlib.Path) -> dict:
    """Pre-warm once, then server lifetimes until ``--seconds`` elapsed.

    A host reading (:func:`refspeed.host_reading`) is taken before every
    lifetime and after the last; server and client together use every
    CPU, so a lifetime's samples are scaled by the readings around it.
    """
    env = child_env()
    profile_dir = out_dir / "service-profiles"
    if args.trace:
        profile_dir.mkdir(parents=True, exist_ok=True)
    svc = service.Service(ROOT, BENCH / ".out" / "serve", env,
                          oracle.load_expected("service"),
                          profile_dir=profile_dir)
    prewarm = svc.prewarm()
    setup = setup_samples(env, SERVICE_IMPORT, True) if args.trace else None

    lives, failures, readings = [], [], []
    start = time.monotonic()
    k = 0
    while True:
        if args.lifetimes is not None:
            if k >= args.lifetimes:
                break
        elif k >= service.MIN_LIFETIMES and \
                time.monotonic() - start >= args.seconds:
            break
        if time.monotonic() > deadline - 10:
            failures.append(f"budget exhausted after {k} lifetimes")
            break
        traced = bool(args.trace) and k % TRACE_EVERY == TRACE_EVERY - 1
        readings.append(refspeed.host_reading())
        try:
            life = svc.lifetime(args.seed, k, traced)
        except service.ServiceError as exc:
            failures.append(f"lifetime {k}: {exc}")
            break
        lives.append(life)
        failures += [f"lifetime {k}: {f}" for f in life["failures"]]
        k += 1
    readings.append(refspeed.host_reading())
    for life, factor in zip(lives, refspeed.interval_factors(readings)):
        life["factor"] = factor

    plain = [life for life in lives if not life["traced"]]
    # every failure string is one failed job, request or lifetime
    attempted = max(1, sum(len(life["jobs"]) + len(life["requests"])
                           for life in lives))
    result = {
        "workload": "service", "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "lifetimes": len(lives),
        "attempted": attempted, "failed": min(attempted, len(failures)),
        "failures": failures[:50],
        "sim_digest": oracle.sim_digest(
            f"{e}/{n}={sha}" for (e, n), sha in sorted(svc.reference.items())),
        "samples": {"op_s": [r["s"] for life in plain for r in life["requests"]
                             if r["kind"] != "submit"],
                    "job_s": [job["s"] for life in plain for job in life["jobs"]],
                    "setup_s": [life.get("setup_s") for life in plain],
                    "reference_s": readings},
    }
    if args.trace:
        result["samples"].update(setup["raw"],
                                 setup_reference_s=setup["readings"])
        return _service_layers(result, lives, prewarm, setup)

    def lifetime_metrics(scale: bool) -> dict:
        def f(life):
            return life["factor"] if scale else 1.0
        request_s = [r["s"] * f(life) for life in plain
                     for r in life["requests"] if r["kind"] != "submit"]
        phase2 = sum(life["phase2_s"] * f(life) for life in plain)
        return {"setup_s": metrics.median_or_zero(
                    [life["setup_s"] * f(life) for life in plain]),
                "op_s.p50": metrics.median_or_zero(request_s),
                "op_s.p90": (metrics.percentile(request_s, 90)
                             if request_s else 0.0),
                "work_per_s": len(request_s) / phase2 if phase2 else 0.0}

    rss = [life["rss_kb"] for life in plain if life.get("rss_kb")]
    memory = {"peak_rss_mb": metrics.median_or_zero(rss) / 1024}
    result["raw"] = {**lifetime_metrics(False), **memory}
    result["values"] = {**lifetime_metrics(True), **memory}
    requests = len(result["samples"]["op_s"])
    result["counts"] = {"setup_s": len(plain), "op_s": requests,
                        "work_per_s": requests, "peak_rss_mb": len(rss)}
    result["tail_ok"] = metrics.tail_ok(requests, 90)
    return result


def _service_layers(result: dict, lives: list[dict], prewarm: dict,
                    setup: dict) -> dict:
    """Per-layer values and spans of a traced service run.

    Latencies come from the untraced lifetimes; layer shares from the
    traced ones' server profiles.
    """
    plain = [life for life in lives if not life["traced"]]
    totals: dict = {}
    spans = []
    run_id = f"service/seed{result['seed']}"
    for life in lives:
        if not life["traced"]:
            continue
        life_id = f"{run_id}/life-{life['k']}"
        spans.append({"span": life_id, "parent": run_id, "name": "lifetime",
                      "wall_s": life["wall_s"]})
        spans += [{"span": job["id"], "parent": life_id,
                   "name": f"job {job['exhibit']}", "start_s": job["posted_at"],
                   "end_s": job["posted_at"] + job["s"]}
                  for job in life["jobs"]]
        profile = json.loads(pathlib.Path(life["profile"]).read_text())
        for n, thread in enumerate(profile["threads"]):
            layers.merge(totals, thread["layers"])
            spans.append({"span": f"{life_id}/t{n}",
                          "parent": _job_of(thread["request"]) or life_id,
                          "name": thread["request"] or thread["thread"],
                          "start_s": thread["start"], "end_s": thread["end"],
                          "layers": _span_layers(thread["layers"]),
                          "edges": thread["edges"]})

    def latencies(scale: bool) -> dict:
        def f(life):
            return life["factor"] if scale else 1.0
        jobs = [(job, f(life)) for life in plain for job in life["jobs"]]
        requests = [(r, f(life)) for life in plain for r in life["requests"]]
        job_s = [job["s"] * x for job, x in jobs]
        out = {"serve.job_s.p50": metrics.median_or_zero(job_s),
               "serve.job_s.p90": (metrics.percentile(job_s, 90)
                                   if job_s else 0.0),
               "serve.queue_wait_s.p50": metrics.median_or_zero(
                   [job["queue_wait_s"] * x for job, x in jobs]),
               "engine.job_run_s.p50": metrics.median_or_zero(
                   [job["run_s"] * x for job, x in jobs])}
        for kind, name in KIND_METRIC.items():
            out[name] = metrics.median_or_zero(
                [r["s"] * x for r, x in requests if r["kind"] == kind])
        request_s = [r["s"] * x for r, x in requests]
        out["serve.request_s.p50"] = metrics.median_or_zero(request_s)
        out["serve.request_s.p99"] = (metrics.percentile(request_s, 99)
                                      if request_s else 0.0)
        traced = [life["wall_s"] * f(life) for life in lives if life["traced"]]
        untraced = [life["wall_s"] * f(life) for life in plain]
        out["trace.overhead"] = (statistics.mean(traced) / statistics.mean(untraced)
                                 if traced and untraced else 0.0)
        return out

    jobs = [job for life in plain for job in life["jobs"]]
    posts = sum(life["stats"].get("requests", 0) for life in plain)
    lookups = sum(job["cache_hits"] + job["cache_misses"] for job in jobs)
    common = {
        **layer_values(totals), **{name: 0 for name in SIM_COUNTS},
        "serve.dedup_ratio": (sum(life["stats"].get("dedup_hits", 0)
                                  for life in plain) / posts if posts else 0.0),
        "engine.cache_hit_ratio": (sum(job["cache_hits"] for job in jobs)
                                   / lookups if lookups else 0.0),
        "engine.cold_overhead_share": (1 - prewarm["busy_ns"] / prewarm["wall_ns"]
                                       if prewarm["wall_ns"] else 0.0)}
    result["raw"] = {**common, **latencies(False), **medians(setup["raw"])}
    result["values"] = {**common, **latencies(True), **medians(setup["scaled"])}
    result["counts"] = {"traced_lifetimes": len(lives) - len(plain),
                        "untraced_lifetimes": len(plain), "jobs": len(jobs),
                        "requests": sum(len(life["requests"]) for life in plain),
                        "setup.import": SETUP_SPAWNS}
    result["spans"] = spans
    return result


def _job_of(request: str | None) -> str | None:
    """The job id a request line addresses, if any."""
    if not request:
        return None
    match = re.match(r"\S+ /(?:experiments|artifacts)/([0-9a-f]+)", request)
    return match.group(1) if match else None


# -- command line ---------------------------------------------------------
def declared_metrics(trace: bool) -> list[dict]:
    """The metric declarations in ``BENCHMARK.json`` for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def emit(result: dict, declared: list[dict]) -> dict:
    """The declared metrics of one result, ``{name: {value, unit}}``."""
    missing = [d["name"] for d in declared if d["name"] not in result["values"]]
    if missing:
        raise BenchError(f"{result['workload']} did not measure {missing}")
    return {d["name"]: {"value": result["values"][d["name"]], "unit": d["unit"]}
            for d in declared}


def report(result: dict, emitted: dict) -> None:
    """Human-readable lines for one workload."""
    counts = result["counts"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  attempted={result['attempted']}")
    for name, metric in emitted.items():
        base = name.split(".p")[0] if name.startswith("op_s") else name
        n = counts.get(base)
        print(f"   {name:<32} {metric['value']:>16.6g} {metric['unit']:<6}"
              + (f" n={n}" if n is not None else ""))
    print(f"   {'fail_frac':<32} {result['failed'] / result['attempted']:>16.6g}"
          f"        ({result['failed']}/{result['attempted']})")
    if not result["trace"] and not result["tail_ok"]:
        print("   note: too few samples for a valid p90 (see bench/README.md)")
    print(f"   {'sim_digest':<32} {result['sim_digest']:>16}")
    for failure in result["failures"][:10]:
        print(f"   FAILED: {failure}")


def write_result(result: dict, out_dir: pathlib.Path) -> None:
    """``<workload>.json`` (and the traced spans) under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        path = out_dir / f"{result['workload']}.trace.jsonl"
        path.write_text("".join(json.dumps(s, sort_keys=True) + "\n"
                                for s in spans))
    (out_dir / f"{result['workload']}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")


def update_expected(args) -> int:
    """Regenerate ``expected/`` for seeds 1-3 (and the service artifacts)."""
    for workload in args.workloads:
        if workload == "service":
            svc = service.Service(ROOT, BENCH / ".out" / "serve", child_env(),
                                  {}, collect_artifacts=True)
            svc.prewarm()
            life = svc.lifetime(1, 0)
            if life["failures"]:
                raise BenchError(f"service lifetime failed: {life['failures']}")
            print(f"wrote {oracle.write_expected('service', life['artifacts'])}")
            continue
        doc = {}
        for seed in oracle.EXPECTED_SEEDS:
            one_round = argparse.Namespace(seed=seed, trials=None, trace=0,
                                           seconds=trials.ROUND_SECONDS)
            result = run_sim(workload, one_round, time.monotonic() + 600, {})
            if result["failures"]:
                raise BenchError(f"{workload} seed {seed}: {result['failures']}")
            doc[str(seed)] = result["digests"]
        print(f"wrote {oracle.write_expected(workload, doc)}")
    return 0


def parse_args(argv=None):
    """Command-line interface (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="measured time per workload (sets the rounds "
                             "of simulator trials; service lifetimes run "
                             "until it has passed)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="result directory (default bench/.out/runs/...)")
    parser.add_argument("--trials", type=int, default=None,
                        help="only the first N trials (smoke runs)")
    parser.add_argument("--lifetimes", type=int, default=None,
                        help="exactly N service lifetimes (smoke runs)")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate bench/expected/ for seeds 1-3")
    args = parser.parse_args(argv)
    args.workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return args


def main(argv=None) -> int:
    """Run the selected workloads; exit 0 only when every output checked out."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'repro'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.update_expected:
        return update_expected(args)
    deadline = time.monotonic() + BUDGET_S * len(args.workloads)
    out_dir = args.out or (BENCH / ".out" / "runs" /
                           f"seed{args.seed}{'-trace' if args.trace else ''}")
    declared = declared_metrics(bool(args.trace))
    emitted_all, correct, attempted, failed = {}, True, 0, 0
    for workload in args.workloads:
        if workload == "service":
            result = run_service(args, deadline, out_dir)
        else:
            result = run_sim(workload, args, deadline,
                             oracle.load_expected(workload))
        emitted = emit(result, declared)
        write_result(result, out_dir)
        report(result, emitted)
        prefix = "" if len(args.workloads) == 1 else f"{workload}/"
        emitted_all.update({prefix + k: v for k, v in emitted.items()})
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": emitted_all}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, service.ServiceError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
