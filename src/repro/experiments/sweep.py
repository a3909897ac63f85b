"""Trial-sweep helpers shared by the experiment runners.

Every registered exhibit sweeps through a :class:`SweepPlan`: it
collects *all* series of an exhibit as
:class:`~repro.engine.task.TrialTask` batches and submits them to the
ambient :class:`~repro.engine.engine.Engine` in one call, so a parallel
engine can overlap trials across series and points, not just within
one series.  Trial ``t`` runs with seed ``BASE_SEED + 97 * t``
(:func:`trial_seeds`).
"""

from __future__ import annotations

from repro.engine.engine import Engine, current_engine
from repro.engine.task import TrialSpec, TrialTask
from repro.util.records import Series, SeriesPoint
from repro.util.stats import summarize

#: seed of every exhibit's first trial
BASE_SEED = 11

#: stride between per-trial seeds (prime, so axes and trials never alias)
SEED_STRIDE = 97


def trial_seeds(trials: int) -> tuple[int, ...]:
    """The seed for each of ``trials`` repetitions."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return tuple(BASE_SEED + SEED_STRIDE * t for t in range(trials))


class SweepPlan:
    """All the trials of one exhibit, ready to submit as a single batch.

    Usage::

        plan = SweepPlan(trials=3)
        plan.add("1-ded", pairs_axis, "fig3.rate", panel="a", instances=1, ...)
        plan.add("10-ded", pairs_axis, "fig3.rate", panel="a", instances=10, ...)
        fig.series.extend(plan.run())

    ``run`` submits every ``(series, x, trial)`` task in one
    ``engine.run_tasks`` call and folds the returned values back into
    one :class:`~repro.util.records.Series` per ``add``, with the mean
    and population std over trials -- numerically identical regardless
    of the engine's job count.
    """

    def __init__(self, trials: int):
        self.seeds = trial_seeds(trials)
        self._series: list[tuple[str, tuple, list[TrialTask]]] = []

    def add(self, label: str, xs, fn: str, **params) -> None:
        """Queue one series: ``fn(x, seed, **params)`` over ``xs`` x seeds."""
        spec = TrialSpec.make(fn, **params)
        tasks = [TrialTask(spec, x, seed) for x in xs for seed in self.seeds]
        self._series.append((label, tuple(xs), tasks))

    def run(self, engine: Engine | None = None) -> list[Series]:
        """Execute the whole plan and assemble one Series per ``add``."""
        engine = engine if engine is not None else current_engine()
        flat = [task for _, _, tasks in self._series for task in tasks]
        values = engine.run_tasks(flat)
        series_list = []
        cursor = 0
        trials = len(self.seeds)
        for label, xs, tasks in self._series:
            points = []
            for x in xs:
                rates = values[cursor:cursor + trials]
                cursor += trials
                mean, std = summarize(rates)
                points.append(SeriesPoint(x, mean, std))
            series_list.append(Series(label, tuple(points)))
        return series_list
