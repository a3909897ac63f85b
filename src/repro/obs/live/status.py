"""The atomic heartbeat: ``status.json`` for anything that polls.

While a sweep runs, the telemetry session rewrites one small JSON
document on a cadence: overall progress (planned / done / computed /
cached / shard-skipped) and an ETA, both derived from the engine's
counters by :func:`repro.obs.enginestats.sweep_progress`, the
per-worker table (which trial each worker is busy on, for how long, on
which attempt), the engine's counter row, and the tail of the event
stream.  :func:`write_status` replaces the file atomically
(:func:`repro.util.atomicio.atomic_write_text`), so ``repro top``, a
shell ``watch cat``, or a metrics scraper can poll it at any instant
and always parse a complete document -- including the instant a
``kill -9`` lands.

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


def write_status(path, snapshot: dict) -> None:
    """Atomically replace ``path`` with ``snapshot`` plus the header
    (schema, host ``ts`` and ``pid``); the cadence is the caller's."""
    doc = {"schema": STATUS_SCHEMA, "ts": round(time.time(), 6),
           "pid": os.getpid(), **snapshot}
    atomic_write_text(path, json.dumps(doc, sort_keys=True) + "\n")


def load_status(path) -> dict | None:
    """Read a heartbeat document back (None when absent/unparseable)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None
