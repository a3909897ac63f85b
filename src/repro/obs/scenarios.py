"""Representative traced runs behind ``python -m repro trace``.

A full experiment is a sweep of dozens of simulations; tracing all of
them would produce an unreadable multi-gigabyte artifact.  Instead each
traceable experiment maps to ONE representative simulation -- the
configuration of its most interesting data point -- run with a
:class:`~repro.obs.tracer.Tracer` (and optionally a
:class:`~repro.obs.metrics.MetricsRegistry`) attached through the
workload's ``instrument`` hook.

The fig3/fig4/table2 scenarios share parameters, so their traces are
directly comparable: ``trace fig3a`` (serial progress) vs ``trace
fig3b`` (concurrent progress) shows the paper's Table II story as lock
tracks -- the matching lock's cumulative contended wait explodes once
progress is parallelized while matching stays shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ThreadingConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@dataclass
class TracedRun:
    """One instrumented representative run."""

    exp_id: str
    tracer: Tracer
    metrics: MetricsRegistry | None
    result: object          #: the workload's result object
    elapsed_ns: int


#: experiment id -> (kind, spec) of the representative simulation.
#: multirate spec: (progress, comm_per_pair, allow_overtaking, any_tag)
#: rmamt spec: (testbed attr, threads)
_MULTIRATE = {
    "fig3a": ("serial", False, False, False),
    "fig3b": ("concurrent", False, False, False),
    "fig3c": ("concurrent", True, False, False),
    "fig4a": ("serial", False, True, True),
    "fig4b": ("concurrent", False, True, True),
    "fig4c": ("concurrent", True, True, True),
    "table2": ("concurrent", False, False, False),
}
_RMAMT = {
    "fig6": "TRINITITE_HASWELL",
    "fig7": "TRINITITE_KNL",
}
#: chaos spec: a concurrent-matching multirate run under packet loss --
#: the trace gains a "faults" track with drop/retransmit instants.
_CHAOS = {
    "chaos": 0.02,  # representative drop rate
}

#: representative multirate shape: mid-size, enough pairs to contend.
PAIRS = 8
WINDOW = 64
WINDOWS = 2
INSTANCES = 20

#: micro shape used by profiling smoke tests: the same scenario, scaled
#: down until a profiled run takes tens of milliseconds.
MICRO_PAIRS = 4
MICRO_WINDOW = 16
MICRO_WINDOWS = 1
MICRO_INSTANCES = 8


def traceable_ids() -> list[str]:
    """Experiment ids that have a representative traced scenario."""
    return sorted(_MULTIRATE) + sorted(_RMAMT) + sorted(_CHAOS)


def scenario_label(exp_id: str) -> str:
    """Human-readable design label of one representative scenario.

    The profiler stamps this on its attribution tables so a profile is
    self-describing: which paper design (progress mode, matching
    layout, ordering) the numbers belong to.
    """
    if exp_id in _MULTIRATE:
        progress, comm_per_pair, overtaking, any_tag = _MULTIRATE[exp_id]
        matching = "per-pair" if comm_per_pair else "shared"
        ordering = "relaxed" if overtaking or any_tag else "strict"
        return (f"multirate progress={progress} matching={matching} "
                f"ordering={ordering}")
    if exp_id in _RMAMT:
        return f"rmamt put+flush testbed={_RMAMT[exp_id]}"
    if exp_id in _CHAOS:
        return f"multirate+faults drop_rate={_CHAOS[exp_id]}"
    raise KeyError(f"experiment {exp_id!r} has no traced scenario; "
                   f"traceable: {traceable_ids()}")


def representative_run(exp_id: str, seed: int = 1, instrument=None,
                       micro: bool = False):
    """Run ``exp_id``'s representative simulation with a raw hook.

    This is the layer underneath :func:`traced_run` and the host-time
    profiler: it picks the experiment's representative configuration
    and executes it, passing ``instrument`` (an ``fn(sched, world)``)
    straight through to the workload.  ``micro=True`` shrinks the shape
    (fewer pairs/ops, one window) for profiling smoke runs.

    Returns ``(result, elapsed_ns)``; both are pure functions of
    ``(exp_id, seed, micro)`` plus whatever the hook perturbs (the
    stock observability hooks perturb nothing).
    """
    if exp_id not in _MULTIRATE and exp_id not in _RMAMT and exp_id not in _CHAOS:
        raise KeyError(f"experiment {exp_id!r} has no traced scenario; "
                       f"traceable: {traceable_ids()}")

    if exp_id in _MULTIRATE or exp_id in _CHAOS:
        from repro.experiments.testbeds import ALEMBERT
        from repro.workloads.multirate import MultirateConfig, run_multirate

        fault_plan = None
        if exp_id in _CHAOS:
            from repro.faults.plan import drop_plan

            progress, comm_per_pair, overtaking, any_tag = (
                "concurrent", True, False, False)
            fault_plan = drop_plan(_CHAOS[exp_id], seed=seed)
        else:
            progress, comm_per_pair, overtaking, any_tag = _MULTIRATE[exp_id]
        pairs, window, windows = ((MICRO_PAIRS, MICRO_WINDOW, MICRO_WINDOWS)
                                  if micro else (PAIRS, WINDOW, WINDOWS))
        instances = MICRO_INSTANCES if micro else INSTANCES
        cfg = MultirateConfig(pairs=pairs, window=window, windows=windows,
                              msg_bytes=0, comm_per_pair=comm_per_pair,
                              allow_overtaking=overtaking, any_tag=any_tag,
                              seed=seed)
        threading = ThreadingConfig(num_instances=instances,
                                    assignment="dedicated", progress=progress)
        result = run_multirate(cfg, threading=threading, costs=ALEMBERT.costs,
                               fabric=ALEMBERT.fabric, instrument=instrument,
                               fault_plan=fault_plan)
    else:
        from repro.experiments import testbeds
        from repro.workloads.rmamt import RmaMtConfig, run_rmamt

        testbed = getattr(testbeds, _RMAMT[exp_id])
        threads, ops = (4, 40) if micro else (8, 150)
        cfg = RmaMtConfig(threads=threads, ops_per_thread=ops, msg_bytes=1024,
                          op="put", sync="flush", seed=seed)
        threading = ThreadingConfig(num_instances=testbed.default_instances,
                                    assignment="dedicated",
                                    progress="concurrent")
        result = run_rmamt(cfg, threading=threading, costs=testbed.costs,
                           fabric=testbed.fabric, instrument=instrument)
    return result, result.elapsed_ns


def traced_run(exp_id: str, seed: int = 1,
               metrics_interval_ns: int | None = None) -> TracedRun:
    """Run ``exp_id``'s representative simulation with instrumentation.

    Returns the :class:`TracedRun`; the tracer's export is byte-identical
    for identical ``(exp_id, seed, metrics_interval_ns)`` inputs.
    """
    captured: dict = {}

    def instrument(sched, world):
        captured["tracer"] = Tracer(sched)
        if metrics_interval_ns is not None:
            captured["metrics"] = MetricsRegistry(
                world, interval_ns=metrics_interval_ns)

    result, elapsed = representative_run(exp_id, seed=seed,
                                         instrument=instrument)

    metrics = captured.get("metrics")
    if metrics is not None:
        metrics.finalize()
    tracer = captured["tracer"]
    tracer.detach()
    return TracedRun(exp_id=exp_id, tracer=tracer, metrics=metrics,
                     result=result, elapsed_ns=elapsed)
