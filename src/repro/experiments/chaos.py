"""Chaos exhibit: message-rate degradation under injected packet loss.

The paper measures the designs on a healthy fabric; this exhibit asks
how each one behaves when the fabric misbehaves.  A seeded
:class:`repro.faults.plan.FaultPlan` drops a fraction of packets at the
delivery point; the reliable transport recovers every loss by
retransmission, so the workload still completes with zero lost
messages -- the cost shows up as elapsed virtual time.

One series per design (serial vs concurrent progress at 1/10/20 CRIs),
swept over drop rates.  The y axis is the achieved message rate; the
``extra`` dict carries, per design, the retransmit count at each drop
rate and the degradation ratio (rate at the highest drop rate over the
fault-free rate).  Expected shape: designs with dedicated per-thread
CRIs degrade most gracefully -- a retransmission stall on one CRI's
connection does not convoy the other threads, whereas with a single
shared CRI every sender queues behind the recovery.
"""

from __future__ import annotations

from repro.core.config import ThreadingConfig
from repro.engine import TrialSpec, TrialTask, current_engine, trial
from repro.experiments.testbeds import ALEMBERT, Testbed
from repro.faults.plan import drop_plan
from repro.util.records import FigureResult, Series, SeriesPoint
from repro.workloads.multirate import MultirateConfig, run_multirate

#: drop-rate axis (fraction of data packets dropped at delivery)
DROP_AXIS_QUICK = (0.0, 0.01, 0.05)
DROP_AXIS_FULL = (0.0, 0.005, 0.01, 0.02, 0.05, 0.10)

#: the designs under study: (label, progress mode, CRI count)
DESIGNS = (
    ("serial, 1 CRI", "serial", 1),
    ("serial, 10 CRIs", "serial", 10),
    ("serial, 20 CRIs", "serial", 20),
    ("concurrent, 1 CRI", "concurrent", 1),
    ("concurrent, 10 CRIs", "concurrent", 10),
    ("concurrent, 20 CRIs", "concurrent", 20),
)


@trial("chaos.point")
def _chaos_trial(rate, seed: int, *, progress: str, instances: int,
                 pairs: int, window: int, windows: int, testbed,
                 fault_seed: int) -> dict:
    """One seeded lossy Multirate run of one design (pure).

    Returns a JSON-able dict so the cache can hold both the achieved
    rate and the retransmit tally the exhibit reports per point.
    """
    threading = ThreadingConfig(num_instances=instances,
                                assignment="dedicated", progress=progress)
    cfg = MultirateConfig(pairs=pairs, window=window, windows=windows,
                          comm_per_pair=True, seed=seed)
    # rate 0 still arms the reliable transport (frames + acks,
    # completion deferred to ack) so every point on the axis pays
    # the same protocol cost and the degradation is purely faults.
    plan = drop_plan(float(rate), seed=fault_seed)
    result = run_multirate(cfg, threading=threading,
                           costs=testbed.costs, fabric=testbed.fabric,
                           fault_plan=plan)
    return {
        "rate": result.message_rate,
        "retransmits": (result.faults["retransmits"]
                        if result.faults is not None else 0),
    }


def run_chaos(quick: bool = True, testbed: Testbed = ALEMBERT,
              drop_rates=None, designs=None, pairs: int | None = None,
              fault_seed: int = 23) -> FigureResult:
    """Message rate vs packet drop rate, per threading design.

    ``drop_rates``/``designs``/``pairs`` override the defaults (the CLI
    uses ``drop_rates`` for ``--drop-rate``, the tests shrink all
    three).  Every run must finish with zero lost messages -- the
    workload itself asserts that -- so any degradation measured here is
    pure recovery cost, never silent loss.
    """
    if drop_rates is None:
        drop_rates = DROP_AXIS_QUICK if quick else DROP_AXIS_FULL
    designs = DESIGNS if designs is None else designs
    pairs = pairs if pairs is not None else (8 if quick else 16)
    window = 32 if quick else 64
    windows = 2 if quick else 3

    fig = FigureResult(
        fig_id="chaos",
        title=f"Message rate under packet loss ({pairs} pairs, dedicated CRIs)",
        xlabel="packet drop rate",
        ylabel="message rate (msg/s)",
    )
    # one engine batch over the full (design x drop-rate) grid
    tasks = []
    for label, progress, instances in designs:
        spec = TrialSpec.make("chaos.point", progress=progress,
                              instances=instances, pairs=pairs, window=window,
                              windows=windows, testbed=testbed,
                              fault_seed=fault_seed)
        tasks.extend(TrialTask(spec, rate, 1) for rate in drop_rates)
    values = current_engine().run_tasks(tasks)

    retransmits: dict[str, dict[float, int]] = {}
    degradation: dict[str, float] = {}
    for d, (label, progress, instances) in enumerate(designs):
        cells = values[d * len(drop_rates):(d + 1) * len(drop_rates)]
        points = [SeriesPoint(rate, cell["rate"])
                  for rate, cell in zip(drop_rates, cells)]
        fig.series.append(Series(label, tuple(points)))
        retransmits[label] = {rate: cell["retransmits"]
                              for rate, cell in zip(drop_rates, cells)}
        baseline = points[0].mean
        degradation[label] = points[-1].mean / baseline if baseline else 0.0
    fig.extra["retransmits"] = retransmits
    #: rate at the worst drop rate relative to the first axis point
    fig.extra["degradation_ratio"] = degradation
    fig.extra["testbed"] = testbed.name
    fig.extra["fault_seed"] = fault_seed
    return fig
