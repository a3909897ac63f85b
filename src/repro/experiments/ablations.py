"""Mechanism ablations: flip one modeled mechanism at a time.

DESIGN.md section 5 calls out the load-bearing modeling decisions; each
ablation isolates one of them so its contribution to the reproduced
shapes is measurable.  Every exhibit is one on/off pair of seeded
Multirate runs (12 pairs, window 64, two windows), plotted at ``x=0``
(mechanism on, the modeled default) and ``x=1`` (mechanism off):

* **fairness** -- the unfair (pthread-like) grant order is what lets
  sequence numbers race network injection; a FIFO lock should slash the
  out-of-sequence fraction for the single-instance case.
* **migration** -- the match-structure cache-migration penalty explains
  Table II's 3x match time under concurrent progress; without it the
  gap should collapse.
* **convoy** -- the per-waiter CRI-lock handoff cost produces the
  single-instance collapse (Fig 3a red); without it the base case
  recovers.
* **jitter** -- cross-connection wire jitter contributes
  out-of-sequence arrivals for multi-instance runs.
* **hostgap** -- the per-process host pipeline gap caps the
  concurrent-matching ceiling (Fig 3c / Fig 5 thread-vs-process gap).

Quick and full runs are the same.
"""

from __future__ import annotations

from repro.core.config import CostModel, ThreadingConfig
from repro.engine import TrialSpec, TrialTask, current_engine, trial
from repro.netsim.ib import IB_EDR
from repro.util.records import FigureResult, Series, SeriesPoint
from repro.workloads.multirate import MultirateConfig, run_multirate

PAIRS = 12
#: ``MultirateConfig``'s default seed, not ``SweepPlan``'s 11: the
#: committed ablation exhibits were made at this one
SEED = 1

SINGLE = ThreadingConfig(num_instances=1, assignment="dedicated",
                         progress="serial")
MANY = ThreadingConfig(num_instances=PAIRS, assignment="dedicated",
                       progress="serial")
CONC = ThreadingConfig(num_instances=PAIRS, assignment="dedicated",
                       progress="concurrent")

#: mechanism -> (title, plotted trial keys, x=0 label, x=1 label)
FIGURES = {
    "fairness": ("OOS fraction vs lock fairness (1 instance)",
                 ("oos_fraction", "rate"),
                 "unfair (pthread-like)", "fair (FIFO)"),
    "migration": ("match time vs migration penalty (concurrent)",
                  ("match_time_ms", "rate"),
                  "migration 1800 ns", "migration off"),
    "convoy": ("1-instance rate vs convoy cost", ("rate",),
               "convoy 320 ns/waiter", "convoy off"),
    "jitter": ("OOS fraction vs wire jitter (12 instances)",
               ("oos_fraction",), "jitter 400 ns", "jitter off"),
    "hostgap": ("concurrent-matching rate vs host gap", ("rate",),
                "gap 340 ns", "gap off"),
}


@trial("ablation.point")
def ablation_trial(off, seed: int, *, mechanism: str) -> dict:
    """One seeded Multirate run with ``mechanism`` on (0) or off (1).

    Pure; returns the counters every ablation plots, as a flat JSON-able
    dict.
    """
    on = not off
    costs, fabric, fairness = CostModel(), IB_EDR, "unfair"
    if mechanism == "fairness":
        threading, fairness = SINGLE, "unfair" if on else "fair"
    elif mechanism == "migration":
        threading = CONC
        costs = costs.with_overrides(match_migration_ns=1800 if on else 0)
    elif mechanism == "convoy":
        threading = SINGLE
        costs = costs.with_overrides(
            lock_contended_per_waiter_ns=320 if on else 0)
    elif mechanism == "jitter":
        threading = MANY
        fabric = fabric.with_overrides(wire_jitter_ns=400 if on else 0)
    elif mechanism == "hostgap":
        threading = CONC
        costs = costs.with_overrides(host_gap_ns=340 if on else 0)
    else:
        raise KeyError(f"unknown ablation {mechanism!r}; "
                       f"known: {sorted(FIGURES)}")
    cfg = MultirateConfig(pairs=PAIRS, window=64, windows=2, seed=seed,
                          comm_per_pair=mechanism == "hostgap")
    result = run_multirate(cfg, threading=threading, costs=costs,
                           fabric=fabric, lock_fairness=fairness)
    spc = result.spc
    return {
        "oos_fraction": spc.out_of_sequence_fraction,
        "rate": result.message_rate,
        "match_time_ms": spc.match_time_ms,
    }


def run_ablation(mechanism: str, quick: bool = True) -> FigureResult:
    """The ``ablation-<mechanism>`` exhibit: one on/off pair of runs."""
    title, keys, on_label, off_label = FIGURES[mechanism]
    spec = TrialSpec.make("ablation.point", mechanism=mechanism)
    on, off = current_engine().run_tasks(
        [TrialTask(spec, x, SEED) for x in (0, 1)])
    fig = FigureResult(f"ablation-{mechanism}", title, "variant", "value")
    for key in keys:
        fig.series.append(Series(key, (SeriesPoint(0, on[key]),
                                       SeriesPoint(1, off[key]))))
    fig.extra["x=0"] = on_label
    fig.extra["x=1"] = off_label
    return fig
