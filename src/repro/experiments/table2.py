"""Table II: SPC counters at the last data point of Figure 3.

For 20 thread pairs with dedicated assignment, for each strategy (serial
progress / concurrent progress / concurrent progress + matching) and each
instance count {1, 10, 20}: total messages, out-of-sequence count and
percentage, and total match time.

The paper's reference values (2,585,600 messages): out-of-sequence stays
at 83-94% for the first two strategies and collapses to ~0% with
concurrent matching; match time is ~3x higher under concurrent progress
and minimal with concurrent matching.
"""

from __future__ import annotations

from repro.core.config import ThreadingConfig
from repro.engine import TrialSpec, TrialTask, current_engine, trial
from repro.experiments.sweep import BASE_SEED
from repro.experiments.testbeds import ALEMBERT, Testbed
from repro.util.records import FigureResult, Series, SeriesPoint
from repro.workloads.multirate import MultirateConfig, run_multirate

STRATEGIES = (
    ("Serial Progress", "serial", False),
    ("Concurrent Progress", "concurrent", False),
    ("Concurrent Progress + Matching", "concurrent", True),
)

INSTANCE_COUNTS = (1, 10, 20)


@trial("table2.cell")
def _table2_trial(instances, seed: int, *, progress: str,
                  comm_per_pair: bool, pairs: int, window: int,
                  windows: int, testbed) -> dict:
    """One seeded Multirate run returning the Table II counters (pure)."""
    cfg = MultirateConfig(pairs=pairs, window=window, windows=windows,
                          comm_per_pair=comm_per_pair, seed=seed)
    threading = ThreadingConfig(num_instances=int(instances),
                                assignment="dedicated", progress=progress)
    result = run_multirate(cfg, threading=threading,
                           costs=testbed.costs, fabric=testbed.fabric)
    spc = result.spc
    return {
        "out_of_sequence": spc.out_of_sequence,
        "out_of_sequence_pct": 100.0 * spc.out_of_sequence_fraction,
        "match_time_ms": spc.match_time_ms,
    }


def run_table2(quick: bool = True, testbed: Testbed = ALEMBERT,
               pairs: int = 20) -> FigureResult:
    """Regenerate Table II (one run per cell; counters are totals)."""
    window = 64 if quick else 128
    windows = 2 if quick else 8

    fig = FigureResult(
        fig_id="table2",
        title=f"SPC counters at {pairs} thread pairs, dedicated assignment",
        xlabel="instances",
        ylabel="counter",
    )
    # one engine batch over the (strategy x instance-count) grid
    tasks = []
    for name, progress, comm_per_pair in STRATEGIES:
        spec = TrialSpec.make("table2.cell", progress=progress,
                              comm_per_pair=comm_per_pair, pairs=pairs,
                              window=window, windows=windows, testbed=testbed)
        tasks.extend(TrialTask(spec, instances, BASE_SEED)
                     for instances in INSTANCE_COUNTS)
    values = current_engine().run_tasks(tasks)

    oos_rows, oos_pct_rows, match_rows = {}, {}, {}
    for s, (name, progress, comm_per_pair) in enumerate(STRATEGIES):
        cells = values[s * len(INSTANCE_COUNTS):(s + 1) * len(INSTANCE_COUNTS)]
        oos_points = [SeriesPoint(i, c["out_of_sequence"])
                      for i, c in zip(INSTANCE_COUNTS, cells)]
        pct_points = [SeriesPoint(i, c["out_of_sequence_pct"])
                      for i, c in zip(INSTANCE_COUNTS, cells)]
        match_points = [SeriesPoint(i, c["match_time_ms"])
                        for i, c in zip(INSTANCE_COUNTS, cells)]
        oos_rows[name] = Series(f"{name}: out-of-sequence", tuple(oos_points))
        oos_pct_rows[name] = Series(f"{name}: out-of-sequence %", tuple(pct_points))
        match_rows[name] = Series(f"{name}: match time (ms)", tuple(match_points))

    for rows in (oos_rows, oos_pct_rows, match_rows):
        fig.series.extend(rows.values())
    fig.extra["total_messages"] = pairs * window * windows
    fig.extra["testbed"] = testbed.name
    return fig
