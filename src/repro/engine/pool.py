"""Serial executor and the per-trial outcome record.

Trials are pure and independent, so execution order cannot affect
results; the pool maps tasks by index and the engine reassembles them in
submission order, which is what makes ``--jobs N`` byte-identical to a
serial run.  Parallel execution is delegated to the supervised pool
(:mod:`repro.engine.supervise`): per-trial wall-clock timeouts, dead
worker detection and bounded retry with exponential backoff, so one
OOM-killed worker costs one retried trial, never the sweep.  The
``fork`` start method is preferred (workers inherit the loaded
registry); under ``spawn`` the worker replays ``sys.path`` and
re-imports the experiment modules.

Each worker reports its pid and per-task busy time so the engine can
derive worker-utilization counters.  Those timings are host wall-clock
-- they feed the engine's host counters (``engine.metrics.csv``,
``status.json``, the manifest), never artifacts and never the
deterministic ``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.engine.task import TrialTask


@dataclass(frozen=True)
class TaskOutcome:
    """One executed trial: its value plus who/how-long bookkeeping."""

    value: object
    worker_pid: int
    busy_ns: int
    attempts: int = 1  #: executions it took (> 1 after supervision retries)


def run_serial(tasks: list[TrialTask], on_outcome=None,
               on_start=None) -> list[TaskOutcome]:
    """Execute every task in this process, in order.

    ``on_outcome(index, outcome)`` fires after each task so callers can
    persist results incrementally (the same streaming contract the
    supervised pool offers); ``on_start(index)`` fires just before a
    task runs, mirroring the supervised pool's dispatch notification so
    telemetry sees the same event sequence either way.
    """
    outcomes = []
    pid = os.getpid()
    for index, task in enumerate(tasks):
        if on_start is not None:
            on_start(index)
        start = time.perf_counter_ns()
        value = task.run()
        outcome = TaskOutcome(value, pid, time.perf_counter_ns() - start)
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(index, outcome)
    return outcomes

