"""Seeded flaky-worker injection: chaos-testing the engine itself.

:mod:`repro.faults.plan` describes what goes wrong *inside* a
simulation; this module describes what goes wrong *around* one -- the
host-level worker process dying or hanging mid-trial.  A
:class:`WorkerFaultPlan` is attached to the supervised pool
(:mod:`repro.engine.supervise`); each worker consults it immediately
before executing a trial and either exits abruptly (an OOM-kill /
``kill -9`` stand-in), sleeps past the supervisor's per-trial timeout
(a wedged-worker stand-in), or proceeds normally.

Decisions follow the fault-plan discipline: drawn from a private
``random.Random`` keyed on ``(plan seed, trial index, attempt)``, so
a given plan kills exactly the same trials on every run -- and because
trials are pure, the retried run's artifacts are byte-identical to an
undisturbed one, which is precisely the property the chaos tests gate.
Faults fire only on the first ``faulty_attempts`` attempts, so a
retry budget ``>= faulty_attempts`` guarantees completion.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Seeded description of how pool workers misbehave.

    ``kill_rate`` of trials lose their worker to an abrupt exit;
    ``hang_rate`` of trials wedge for ``hang_s`` seconds (recovered by
    the supervisor's timeout, which must be below ``hang_s`` for the
    hang to be observable as a timeout).  Rates apply per
    ``(trial, attempt)`` draw, independently.
    """

    seed: int = 1
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    hang_s: float = 30.0
    faulty_attempts: int = 1

    def __post_init__(self):
        _check_rate("kill_rate", self.kill_rate)
        _check_rate("hang_rate", self.hang_rate)
        if self.kill_rate + self.hang_rate > 1.0:
            raise ValueError("kill_rate + hang_rate must not exceed 1")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be > 0")
        if self.faulty_attempts < 0:
            raise ValueError("faulty_attempts must be >= 0")

    # ------------------------------------------------------------------
    def decide(self, index: int, attempt: int) -> str | None:
        """The fate of executing trial ``index`` on ``attempt`` (1-based).

        Returns ``"kill"``, ``"hang"``, or None -- a pure function of
        ``(seed, index, attempt)``, identical in every process that
        asks.
        """
        if attempt > self.faulty_attempts:
            return None
        draw = random.Random(
            f"worker-faults:{self.seed}:{index}:{attempt}").random()
        if draw < self.kill_rate:
            return "kill"
        if draw < self.kill_rate + self.hang_rate:
            return "hang"
        return None

    def apply(self, index: int, attempt: int) -> None:
        """Enact :meth:`decide` in the calling worker process.

        ``kill`` exits the process without cleanup (``os._exit``), the
        closest in-band stand-in for SIGKILL; ``hang`` sleeps for
        ``hang_s``.  Call only from a pool worker, never the parent.
        """
        fate = self.decide(index, attempt)
        if fate == "kill":
            os._exit(86)
        if fate == "hang":
            time.sleep(self.hang_s)
