"""Host-speed reference: a fixed burst of interpreter-bound work.

Shared cloud hosts drift in speed by tens of percent within seconds,
and each CPU drifts on its own.  The benchmark therefore times this
burst between its samples (trials, spawns, server lifetimes) and reports
every sample at the speed the reference host had when the benchmark was
defined::

    reported = measured * NOMINAL_S / mean(reading before, reading after)

Rates are computed from the scaled samples.  Result files keep the raw
values and the readings next to the reported ones.

The burst uses only the standard library and resembles the program's
hot loops: a heap of tuples, dict updates, generator resumption and
small-object churn.  It must never change, since the scale of every
reported time depends on it.
"""

from __future__ import annotations

import heapq
import os
import statistics
import time

#: median burst seconds on the reference host (2 vCPU Xeon VM, Python 3.11.7)
NOMINAL_S = 0.0085
_ROUNDS = 5000


def _ticker(n: int):
    total = 0
    for i in range(n):
        total += yield i
    return total


def burst() -> float:
    """Seconds one fixed reference burst takes right now."""
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    acc = 1
    for r in range(_ROUNDS):
        gen = _ticker(8)
        value = next(gen)
        try:
            while True:
                value = gen.send(value + acc)
        except StopIteration as stop:
            acc = (acc * 31 + stop.value) % 1000003
        heapq.heappush(heap, (acc, r, (r, acc)))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[acc & 511] = [r, acc]
    return time.perf_counter() - start


#: most CPUs one host reading visits
MAX_CPUS = 8


def host_reading() -> float:
    """Mean burst time over the CPUs this process may run on.

    Each CPU of a shared host drifts on its own, so a process that was
    timed on one CPU says little about work that ran on another.  Work
    spread over several processes (a server and its client) or landing
    on any CPU (a fresh interpreter) sees their mean, so this pins the
    calling process to each allowed CPU in turn -- a warm-up burst, then
    a timed one -- and restores its affinity before returning.
    """
    if not hasattr(os, "sched_setaffinity"):
        burst()
        return burst()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            burst()
            times.append(burst())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def interval_factors(readings) -> list[float]:
    """Per-sample multipliers from the readings taken around the samples.

    ``readings`` has one entry before each sample plus one after the
    last (``None`` where a reading is missing); sample ``i`` is scaled
    by ``NOMINAL_S`` over the mean of readings ``i`` and ``i + 1``.
    """
    factors = []
    for before, after in zip(readings, readings[1:]):
        known = [r for r in (before, after) if r]
        factors.append(NOMINAL_S / statistics.fmean(known) if known else 1.0)
    return factors
