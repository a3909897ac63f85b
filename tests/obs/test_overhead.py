"""Tracer overhead guard.

The tracer must be effectively free when disabled (instrumentation sites
reduce to one attribute load and a branch) and affordable when enabled.
The timed kernel is fig3b's unit of work (8 pairs, 20 CRIs, concurrent
progress); the enabled run records ~7k spans of it.
"""

import time

from repro.core import ThreadingConfig
from repro.obs.tracer import Tracer
from repro.workloads import MultirateConfig, run_multirate


def _kernel(instrument=None):
    return run_multirate(
        MultirateConfig(pairs=8, window=64, windows=2),
        threading=ThreadingConfig(num_instances=20, assignment="dedicated",
                                  progress="concurrent"),
        instrument=instrument)


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_enabled_tracer_overhead_bounded():
    """Recording everything must stay within small-constant cost.

    Measured ~1.6x on the dev box; 3.0 leaves slack for CI noise.  The
    disabled run exercises the same instrumentation sites through the
    null tracer, so a regression in either path trips this.
    """
    disabled = _best_of(lambda: _kernel())

    def enabled():
        tracers = []

        def instrument(sched, world):
            tracers.append(Tracer(sched))

        _kernel(instrument=instrument)
        tracers[0].detach()
        assert tracers[0].spans  # actually recorded

    assert _best_of(enabled) / disabled < 3.0
