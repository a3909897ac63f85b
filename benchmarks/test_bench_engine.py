"""Engine baseline: contract metrics + wall-clock trajectory.

Times one representative exhibit (ext-modes: small enough to finish in
seconds, big enough to have parallelizable trials) three ways -- serial
cold, parallel cold, warm cache.  The wall-clock numbers land in
``BENCH_engine.json``'s ``host.trajectory`` (informational history);
the *gated* metrics -- trial counts, cache hit/miss behaviour and the
byte-identical-CSV contract -- come from the shared deterministic
probe via ``perf_baseline``, so ``python -m repro perf check`` verifies
the same contract this bench asserts.
"""

import pathlib
import time

from repro.engine import Engine, TrialCache, use_engine
from repro.perf.baseline import record_trajectory
from repro.experiments.extensions import run_entity_modes

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
JOBS = 4


def _timed(engine):
    """Run the exhibit under ``engine``; returns (csv, seconds)."""
    t0 = time.perf_counter()
    with use_engine(engine):
        fig = run_entity_modes(quick=True)
    return fig.to_csv(), time.perf_counter() - t0


def test_bench_engine_baseline(perf_baseline):
    """The deterministic engine contract, recorded to the registry."""
    metrics = perf_baseline("engine")
    assert metrics["warm_csv_identical"] == 1
    assert metrics["warm_misses"] == 0
    assert metrics["warm_hits"] == metrics["trials"]


def test_bench_engine_trajectory(tmp_path):
    """Record serial-cold / parallel-cold / warm-cache timings."""
    cache_root = tmp_path / "cache"

    serial = Engine(jobs=1)
    serial_csv, serial_s = _timed(serial)

    parallel = Engine(jobs=JOBS, cache=TrialCache(cache_root))
    parallel_csv, parallel_s = _timed(parallel)

    warm = Engine(jobs=JOBS, cache=TrialCache(cache_root))
    warm_csv, warm_s = _timed(warm)

    # the contract the timings ride on
    assert parallel_csv == serial_csv
    assert warm_csv == serial_csv
    assert warm.counters.cache_hits == warm.counters.trials
    assert warm.counters.cache_misses == 0

    doc = record_trajectory(RESULTS_DIR, "engine", {
        "label": "ext-modes quick",
        "exhibit": "ext-modes",
        "jobs": JOBS,
        "trials": serial.counters.trials,
        "serial_cold_s": round(serial_s, 3),
        "parallel_cold_s": round(parallel_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "parallel_utilization": round(parallel.utilization(), 3),
    })
    assert any(e.get("label") == "ext-modes quick"
               for e in doc["host"]["trajectory"])


def test_bench_engine_supervised_chaos_trajectory():
    """Flaky-worker run: byte-identical despite deaths, overhead recorded."""
    from repro.engine import RetryPolicy
    from repro.faults.workers import WorkerFaultPlan

    serial_csv, serial_s = _timed(Engine(jobs=1))

    plan = WorkerFaultPlan(seed=11, kill_rate=0.25)
    flaky = Engine(jobs=JOBS, faults=plan,
                   policy=RetryPolicy(max_retries=2, backoff_s=0.01))
    flaky_csv, flaky_s = _timed(flaky)

    assert flaky_csv == serial_csv                # chaos never changes values
    assert flaky.counters.worker_deaths > 0       # the chaos actually landed
    assert flaky.counters.retries >= flaky.counters.worker_deaths

    doc = record_trajectory(RESULTS_DIR, "engine", {
        "label": "ext-modes quick, flaky workers",
        "exhibit": "ext-modes",
        "jobs": JOBS,
        "kill_rate": plan.kill_rate,
        "worker_deaths": flaky.counters.worker_deaths,
        "retries": flaky.counters.retries,
        "serial_cold_s": round(serial_s, 3),
        "flaky_cold_s": round(flaky_s, 3),
    })
    assert any(e.get("label") == "ext-modes quick, flaky workers"
               for e in doc["host"]["trajectory"])
