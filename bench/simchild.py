"""Child interpreter for the simulator workloads: runs the trials it is sent.

Started fresh for every workload run by ``run.py``.  Reads one JSON
document from stdin::

    {"trials": [<trial>, ...], "indices": [<i>, ...], "trace": false}

and writes one JSON line per trial to stdout, then a final
``{"done": true, "rss_kb": ...}`` line.  Each trial is timed around the
public entry point only (``run_multirate`` / ``run_rmamt`` with a
``repro.experiments`` testbed); the ``instrument=`` hook is used only to
keep a reference to the scheduler and world for reading counters.

With ``"trace": true`` every trial is run three times: untraced (the
timing base and the counters), under ``cProfile`` (per-layer self time
and calls), and with a ``SchedStats`` installed (event-loop counters;
this switches the scheduler to its instrumented loop body, so it is
kept out of the profiled run).  All three must produce the same digest.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import time

import repro
from repro.core.config import ThreadingConfig
from repro.experiments.testbeds import TESTBEDS
from repro.simthread.stats import SchedStats
from repro.workloads import (MultirateConfig, RmaMtConfig, run_multirate,
                             run_rmamt)

import layers
import oracle
import refspeed

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SCHED_COUNTERS = ("events_delay", "events_suspend", "heap_pushes",
                  "gen_steps", "wakes")


def execute(trial: dict, stats: SchedStats | None = None):
    """Run one trial; returns ``(result, scheduler, world)``."""
    testbed = TESTBEDS[trial["testbed"]]
    threading = ThreadingConfig(**trial["threading"])
    seen = {}

    def instrument(sched, world):
        seen["sched"], seen["world"] = sched, world
        if stats is not None:
            sched.set_stats(stats)

    if trial["kind"] == "multirate":
        result = run_multirate(MultirateConfig(**trial["config"]),
                               threading=threading, costs=testbed.costs,
                               fabric=testbed.fabric, instrument=instrument)
    else:
        result = run_rmamt(RmaMtConfig(**trial["config"]),
                           threading=threading, costs=testbed.costs,
                           fabric=testbed.fabric, instrument=instrument)
    return result, seen["sched"], seen["world"]


def observe(trial: dict, result, world) -> tuple[dict, object]:
    """The model-determined outputs of one trial, and its SPC totals."""
    spc = result.spc if trial["kind"] == "multirate" else world.spc_total()
    doc = {"elapsed_ns": result.elapsed_ns,
           "events": result.events_processed,
           "rate": result.message_rate,
           "spc": spc.as_dict()}
    if trial["kind"] == "multirate":
        doc["latency"] = result.latency
    else:
        doc["peak_rate"] = result.peak_rate
    return doc, spc


def violations(trial: dict, doc: dict, spc) -> list[str]:
    """Invariants every trial must satisfy, whatever its seed."""
    c = trial["config"]
    problems = []
    if doc["elapsed_ns"] <= 0 or doc["events"] <= 0:
        problems.append("no virtual time or events")
    if trial["kind"] == "multirate":
        total = c["pairs"] * c["window"] * c["windows"]
        if spc.messages_sent != total or spc.messages_received != total:
            problems.append(f"sent/received {spc.messages_sent}/"
                            f"{spc.messages_received} of {total}")
        if doc["latency"].get("count") != total:
            problems.append(f"latency count {doc['latency'].get('count')}")
        if c.get("allow_overtaking") and spc.out_of_sequence:
            problems.append("out-of-sequence messages with overtaking allowed")
        eager = TESTBEDS[trial["testbed"]].costs.eager_limit_bytes
        rndv = total if c["msg_bytes"] > eager else 0
        if spc.rendezvous_sends != rndv:
            problems.append(f"rendezvous sends {spc.rendezvous_sends} != {rndv}")
    else:
        total = c["threads"] * c["ops_per_thread"]
        if spc.rma_ops != total:
            problems.append(f"rma ops {spc.rma_ops} != {total}")
        if spc.rma_flushes < c["threads"]:
            problems.append(f"rma flushes {spc.rma_flushes} < {c['threads']}")
    return problems


def counters(sched, spc, events: int) -> dict:
    """Deterministic per-layer counts of one untraced trial."""
    locks = sched.locks
    return {
        "simthread.events": events,
        "simthread.lock.acquisitions": sum(lk.acquisitions for lk in locks),
        "simthread.lock.contended": sum(lk.contended_acquisitions
                                        for lk in locks),
        "simthread.lock.tryfails": sum(lk.tryfails for lk in locks),
        "simthread.lock.wait_ns": sum(lk.wait_time_ns for lk in locks),
        "mpi.out_of_sequence": spc.out_of_sequence,
        "mpi.unexpected": spc.unexpected_messages,
        "mpi.match_time_ns": spc.match_time_ns,
        "mpi.rma.flushes": spc.rma_flushes,
    }


def run_one(i: int, trial: dict, trace: bool) -> dict:
    """Measure one trial (and, when tracing, replay it twice)."""
    gc.collect()       # keep one trial's garbage off the next one's clock
    start = time.perf_counter()
    result, sched, world = execute(trial)
    host_s = time.perf_counter() - start
    doc, spc = observe(trial, result, world)
    rec = {"i": i, "host_s": host_s, "events": result.events_processed,
           "digest": oracle.digest(doc),
           "violations": violations(trial, doc, spc)}
    if not trace:
        return rec

    counts = counters(sched, spc, result.events_processed)
    gc.collect()
    prof = cProfile.Profile()
    span_start = time.perf_counter()
    presult, _, pworld = prof.runcall(execute, trial)
    span_end = time.perf_counter()
    prof.create_stats()
    totals, edges = layers.aggregate(prof.stats, REPRO_DIR)

    stats = SchedStats()
    gc.collect()
    sresult, _, sworld = execute(trial, stats)
    counts.update({f"simthread.sched.{k}": getattr(stats, k)
                   for k in SCHED_COUNTERS})
    for name, (res, w) in (("profiled", (presult, pworld)),
                           ("sched-stats", (sresult, sworld))):
        replay = oracle.digest(observe(trial, res, w)[0])
        if replay != rec["digest"]:
            rec["violations"].append(f"{name} replay digest {replay} != "
                                     f"{rec['digest']}")
    rec["trace"] = {"untraced_s": host_s, "profiled_s": span_end - span_start,
                    "start_s": span_start, "end_s": span_end,
                    "layers": totals, "edges": edges, "counts": counts}
    return rec


def main() -> int:
    """Run every trial in the stdin job; one JSON line each.

    A host-speed reference burst (:mod:`refspeed`) is timed in this same
    busy process before every trial and once after the last.
    """
    job = json.load(sys.stdin)
    for i, trial in zip(job["indices"], job["trials"]):
        probe_s = refspeed.burst()
        try:
            rec = run_one(i, trial, job["trace"])
        except Exception as exc:  # a failed trial is a failed op, not a crash
            rec = {"i": i, "error": f"{type(exc).__name__}: {exc}"}
        rec["probe_s"] = probe_s
        print(json.dumps(rec), flush=True)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"done": True, "rss_kb": rss_kb,
                      "probe_s": refspeed.burst()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
