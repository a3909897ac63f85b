"""The atomic heartbeat: ``status.json`` for anything that polls.

While a sweep runs, the supervisor rewrites one small JSON document on
a cadence: overall progress (planned / done / computed / cached /
shard-skipped), an ETA derived from completed-trial costs, the
per-worker table (which trial each worker is busy on, for how long, on
which attempt), the engine's aggregated counters, and the tail of the
event stream.  The write is atomic (:func:`repro.util.atomicio.
atomic_write_text`), so ``repro top``, a shell ``watch cat``, or a
metrics scraper can poll the file at any instant and always parse a
complete document -- including the instant a ``kill -9`` lands.

Unlike the artifacts, everything here is *host* truth: wall-clock
seconds, pids, ETAs.  That is the point -- the deterministic story
lives in the trial cache and the artifacts; the heartbeat exists to
answer "is it alive and how far along is it" while they are still
being written.
"""

from __future__ import annotations

import json
import os
import time

from repro.util.atomicio import atomic_write_text

#: bump when the document layout changes (checked by tools/lint_events.py)
STATUS_SCHEMA = 2

#: the filename every telemetry directory uses for the heartbeat
STATUS_NAME = "status.json"

#: states a heartbeat document may report
STATUS_STATES = ("running", "finished", "failed", "killed")


def eta_seconds(remaining: int, costs_ns: list[int], jobs: int) -> float | None:
    """Naive ETA: mean completed-trial cost times trials left per worker.

    ``costs_ns`` are host nanoseconds of this run's completed
    computations (cache hits cost nothing and add no sample).  With no
    completed cost yet there is nothing to extrapolate from and the ETA
    is None (rendered as unknown).
    """
    if remaining <= 0:
        return 0.0
    if not costs_ns:
        return None
    mean_s = (sum(costs_ns) / len(costs_ns)) / 1e9
    return round(remaining * mean_s / max(1, jobs), 3)


class StatusWriter:
    """Rewrites one sweep's ``status.json`` atomically, on a cadence.

    The writer owns nothing but the path and the rate limit; every
    call hands it a fresh snapshot dict (built by the telemetry
    session), which keeps this class trivially testable and the
    engine's fast path free of status bookkeeping.
    """

    def __init__(self, path, min_interval_s: float = 0.25):
        self.path = path
        self.min_interval_s = min_interval_s
        self.writes = 0
        self._last_write = 0.0

    def write(self, snapshot: dict, force: bool = False) -> bool:
        """Persist ``snapshot`` unless one landed within the cadence.

        ``force=True`` bypasses the rate limit (sweep start/finish and
        postmortems always surface).  Returns whether a write happened.
        """
        now = time.monotonic()
        if not force and now - self._last_write < self.min_interval_s:
            return False
        self._last_write = now
        doc = {"schema": STATUS_SCHEMA, "ts": round(time.time(), 6),
               "pid": os.getpid(), **snapshot}
        atomic_write_text(self.path, json.dumps(doc, sort_keys=True) + "\n")
        self.writes += 1
        return True


def load_status(path) -> dict | None:
    """Read a heartbeat document back (None when absent/unparseable)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None
