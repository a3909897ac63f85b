"""Deterministic probes: the seeded measurements behind every baseline.

One probe per baseline family.  A probe runs a small, seeded slice of
the family's workload and returns a flat ``{metric: value}`` dict of
*deterministic* quantities: virtual-time totals, message counts, SPC
aggregates and sha256 prefixes of rendered artifacts.  Nothing
host-dependent goes in here.

``python -m repro perf update`` writes ``results/BENCH_X.json`` from
``run_probe("X")``, and ``python -m repro perf check`` recomputes
``run_probe("X")`` on the current tree and diffs it against the
committed file.  A delta therefore always means behaviour drift in the
simulation, never runner noise.
"""

from __future__ import annotations

import hashlib
import tempfile


def _sha(text: str) -> str:
    """Short, stable content fingerprint for rendered artifacts."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _multirate_metrics(prefix: str, result) -> dict:
    """The deterministic core of one multirate run."""
    spc = result.spc
    return {
        f"{prefix}elapsed_ns": result.elapsed_ns,
        f"{prefix}messages": result.messages,
        f"{prefix}message_rate": round(result.message_rate, 3),
        f"{prefix}out_of_sequence": spc.out_of_sequence,
        f"{prefix}unexpected": spc.unexpected_messages,
        f"{prefix}match_time_ns": spc.match_time_ns,
        f"{prefix}events": result.events_processed,
    }


def probe_fig3() -> dict:
    """Figure 3's three panels at a small unit-of-work size."""
    from repro.core import ThreadingConfig
    from repro.experiments.figure3 import PANELS
    from repro.workloads import MultirateConfig, run_multirate

    out: dict = {}
    for panel in ("a", "b", "c"):
        progress, comm_per_pair, _ = PANELS[panel]
        result = run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            comm_per_pair=comm_per_pair),
            threading=ThreadingConfig(num_instances=20,
                                      assignment="dedicated",
                                      progress=progress))
        out.update(_multirate_metrics(f"{panel}.", result))
    return out


def probe_fig4() -> dict:
    """Figure 4: the same panels with ordering relaxed."""
    from repro.core import ThreadingConfig
    from repro.experiments.figure3 import PANELS
    from repro.workloads import MultirateConfig, run_multirate

    out: dict = {}
    for panel in ("a", "b", "c"):
        progress, comm_per_pair, _ = PANELS[panel]
        result = run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            comm_per_pair=comm_per_pair,
                            allow_overtaking=True, any_tag=True),
            threading=ThreadingConfig(num_instances=20,
                                      assignment="dedicated",
                                      progress=progress))
        out.update(_multirate_metrics(f"{panel}.", result))
    return out


def probe_fig5() -> dict:
    """Figure 5: one run per implementation profile."""
    from repro.baselines import profile_by_name
    from repro.workloads import MultirateConfig, run_multirate

    out: dict = {}
    for key, name in (("process", "OMPI Process"),
                      ("thread", "OMPI Thread"),
                      ("star", "OMPI Thread + CRIs*")):
        profile = profile_by_name(name)
        result = run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            entity_mode=profile.entity_mode,
                            comm_per_pair=profile.comm_per_pair),
            threading=profile.config, costs=profile.costs())
        out[f"{key}.elapsed_ns"] = result.elapsed_ns
        out[f"{key}.message_rate"] = round(result.message_rate, 3)
    return out


def _rmamt_metrics(testbed, threads: int, ops: int) -> dict:
    from repro.core import ThreadingConfig
    from repro.workloads import RmaMtConfig, run_rmamt

    result = run_rmamt(
        RmaMtConfig(threads=threads, ops_per_thread=ops, msg_bytes=128),
        threading=ThreadingConfig(num_instances=testbed.default_instances,
                                  assignment="dedicated"),
        costs=testbed.costs, fabric=testbed.fabric)
    return {
        "elapsed_ns": result.elapsed_ns,
        "message_rate": round(result.message_rate, 3),
        "events": result.events_processed,
        "peak_rate": round(result.peak_rate, 3),
    }


def probe_fig6() -> dict:
    """Figure 6: RMA-MT put+flush on the Haswell/Aries preset."""
    from repro.experiments.testbeds import TRINITITE_HASWELL

    return _rmamt_metrics(TRINITITE_HASWELL, threads=16, ops=150)


def probe_fig7() -> dict:
    """Figure 7: RMA-MT put+flush on the KNL/Aries preset."""
    from repro.experiments.testbeds import TRINITITE_KNL

    return _rmamt_metrics(TRINITITE_KNL, threads=32, ops=100)


def probe_table1() -> dict:
    """Table I: the rendered testbed table's fingerprint.

    Table I is static configuration (the testbed rows live in the
    figure's ``extra`` map, not its series), so the fingerprint covers
    the sorted rows themselves.
    """
    from repro.experiments.table1 import run_table1

    fig = run_table1()
    rows = "\n".join(f"{k}={v}" for k, v in sorted(fig.extra.items()))
    return {"cells": len(fig.extra), "rows_sha": _sha(rows)}


def probe_table2() -> dict:
    """Table II: SPC counters of the serial 20-pair cell."""
    from repro.core import ThreadingConfig
    from repro.workloads import MultirateConfig, run_multirate

    result = run_multirate(
        MultirateConfig(pairs=20, window=64, windows=2),
        threading=ThreadingConfig(num_instances=20, assignment="dedicated",
                                  progress="serial"))
    out = _multirate_metrics("", result)
    out["oos_fraction"] = round(result.spc.out_of_sequence_fraction, 6)
    return out


def probe_ablations() -> dict:
    """The five mechanism ablations, one on/off pair each."""
    from repro.experiments.ablations import SEED, ablation_trial

    out: dict = {}
    for mechanism, key, on_metric, off_metric in (
            ("fairness", "oos", "oos_unfair", "oos_fair"),
            ("migration", "match_time_ns", "match_ns_on", "match_ns_off"),
            ("convoy", "elapsed_ns", "elapsed_ns_on", "elapsed_ns_off"),
            ("jitter", "oos", "oos_on", "oos_off"),
            ("hostgap", "elapsed_ns", "elapsed_ns_on", "elapsed_ns_off")):
        for off, metric in enumerate((on_metric, off_metric)):
            out[f"{mechanism}.{metric}"] = ablation_trial(
                off, SEED, mechanism=mechanism)[key]
    return out


def probe_extensions() -> dict:
    """The ext-modes exhibit (the engine bench's exhibit) fingerprint."""
    from repro.experiments.extensions import run_entity_modes

    fig = run_entity_modes(quick=True)
    return {"series": len(fig.series), "csv_sha": _sha(fig.to_csv())}


def probe_engine() -> dict:
    """Engine contract: parallel/warm-cache runs reproduce serial bytes."""
    from repro.engine import Engine, TrialCache, use_engine
    from repro.experiments.extensions import run_entity_modes

    with tempfile.TemporaryDirectory() as tmp:
        cold = Engine(jobs=1, cache=TrialCache(f"{tmp}/cache"))
        with use_engine(cold):
            cold_csv = run_entity_modes(quick=True).to_csv()
        warm = Engine(jobs=1, cache=TrialCache(f"{tmp}/cache"))
        with use_engine(warm):
            warm_csv = run_entity_modes(quick=True).to_csv()
    return {
        "trials": cold.counters.trials,
        "cold_misses": cold.counters.cache_misses,
        "warm_hits": warm.counters.cache_hits,
        "warm_misses": warm.counters.cache_misses,
        "csv_sha": _sha(cold_csv),
        "warm_csv_identical": int(warm_csv == cold_csv),
    }


def probe_simcore() -> dict:
    """Simulation-core invariants: scheduler, lock, match queue, e2e."""
    from repro.mpi.matchqueue import MatchQueue
    from repro.simthread import Delay, Scheduler, SimLock
    from repro.workloads import MultirateConfig, run_multirate

    sched = Scheduler(seed=1)

    def worker():
        for _ in range(500):
            yield Delay(100)

    for _ in range(20):
        sched.spawn(worker())
    sched.run()

    lock_sched = Scheduler(seed=2)
    lock = SimLock(lock_sched)

    def locker():
        for _ in range(200):
            yield from lock.acquire()
            yield Delay(50)
            yield lock.release()

    for _ in range(8):
        lock_sched.spawn(locker())
    lock_elapsed = lock_sched.run()

    q = MatchQueue(entry_wildcards=True)
    for i in range(2000):
        q.insert(i % 4, i % 16, i)
    matched = sum(1 for i in range(2000) if q.match(i % 4, i % 16) is not None)

    e2e = run_multirate(MultirateConfig(pairs=4, window=32, windows=2))
    return {
        "sched_events": sched.events_processed,
        "lock_acquisitions": lock.acquisitions,
        "lock_elapsed_ns": lock_elapsed,
        "matchqueue_matched": matched,
        "e2e_elapsed_ns": e2e.elapsed_ns,
        "e2e_messages": e2e.messages,
    }


def probe_obs() -> dict:
    """Trace + analysis fingerprints of the seeded fig3a and chaos runs."""
    from repro.obs.analyze import analyze_tracer
    from repro.obs.export import to_chrome_json
    from repro.obs.scenarios import traced_run

    out: dict = {}
    for exp in ("fig3a", "chaos"):
        run = traced_run(exp)
        analysis = analyze_tracer(run.tracer, name=exp)
        out[f"{exp}.spans"] = len(run.tracer.spans)
        out[f"{exp}.elapsed_ns"] = run.elapsed_ns
        out[f"{exp}.trace_sha"] = _sha(to_chrome_json(run.tracer))
        out[f"{exp}.messages_sha"] = _sha(analysis.messages_csv())
        out[f"{exp}.critical_sha"] = _sha(analysis.critical_csv())
        out[f"{exp}.blame_sha"] = _sha(analysis.blame_csv())
    return out


#: baseline-family name -> probe; one entry per ``results/BENCH_*.json``
PROBES = {
    "ablations": probe_ablations,
    "engine": probe_engine,
    "extensions": probe_extensions,
    "fig3": probe_fig3,
    "fig4": probe_fig4,
    "fig5": probe_fig5,
    "fig6": probe_fig6,
    "fig7": probe_fig7,
    "obs": probe_obs,
    "simcore": probe_simcore,
    "table1": probe_table1,
    "table2": probe_table2,
}


def run_probe(name: str) -> dict:
    """Run one registered probe and return its deterministic metrics."""
    try:
        probe = PROBES[name]
    except KeyError:
        raise KeyError(f"no probe named {name!r}; known: "
                       f"{', '.join(sorted(PROBES))}") from None
    return probe()
