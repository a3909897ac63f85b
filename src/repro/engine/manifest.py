"""Run provenance: ``manifest.json`` next to every artifact set.

A results directory without provenance is an archaeology problem: which
seed, which parameters, which *code* produced these CSVs?  The manifest
answers all three.  Every ``repro run ... --out`` (and ``repro profile
--out``) drops a ``manifest.json`` beside its artifacts recording:

* the exact command and experiment ids;
* the run parameters (quick/full, seed, jobs, drop rate, ...);
* the **code fingerprint** (:func:`repro.engine.fingerprint.core_fingerprint`)
  -- the same content hash the trial cache keys on, so a manifest can
  be matched against cache entries and against the tree that wrote it;
* the Python version and host wall time;
* the engine counters, **aggregated across pool workers**: trials,
  dedup/cache tallies, journal/resume and shard tallies, the
  supervision record (retries, timeouts, worker deaths, respawns,
  quarantined cache entries) and the per-worker busy nanoseconds
  folded into a pid-free sorted list.  Because the engine merges
  worker outcomes in the parent, a ``--jobs N`` manifest's counter
  totals are equal to the serial run's -- a property the tests gate
  on; under a seeded :class:`~repro.faults.workers.WorkerFaultPlan`
  even the retry/timeout counts are deterministic.

Since schema 3, a run with live telemetry enabled also records a
``telemetry`` block: the event-log tally by kind, the total event
count, the telemetry directory name and the postmortem bundle name (if
one was dumped).  Event *counts* are deterministic for a seeded sweep
(events carry host timestamps, but how many of each kind happened is a
function of the plan and the fault seed), so the block participates in
the same serial-equals-parallel totals property as the counters.

Since schema 4, a sweep executed by the experiment service
(:mod:`repro.serve`) additionally records a ``served`` block: how many
client requests mapped onto this job (``requests``), how many were
answered by deduplication against it (``dedup_hits``) and how many
cold executions happened (``cold_runs`` -- always 1 per job, by the
dedup contract).  The ``engine`` block of a served manifest is the
parity surface: its deterministic counters must equal a ``repro run``
of the same (exhibit, params) exactly, which the serve test suite
gates on.

Documents are written with sorted keys and a trailing newline; the
``host`` block (wall time, python, busy lists) is informational, while
the rest is deterministic given the tree and CLI invocation.
"""

from __future__ import annotations

import json
import pathlib
import platform

#: bump when the manifest layout changes
MANIFEST_SCHEMA = 4

#: filename written next to artifacts
MANIFEST_NAME = "manifest.json"


def engine_provenance(engine) -> dict:
    """The engine-counter block of a manifest (worker-aggregated).

    The deterministic counters (see
    :class:`~repro.engine.engine.EngineCounters`) sit at top level with
    the run's ``jobs``, ``shard`` and ``workers_used``; the host-tagged
    counters go under ``host``.  Worker pids are discarded -- only the
    sorted per-worker busy times (host) and the worker count survive
    aggregation.
    """
    c = engine.counters
    block = c.deterministic()
    block["jobs"] = engine.jobs
    block["shard"] = list(engine.shard) if engine.shard is not None else None
    block["workers_used"] = len(c.workers)
    block["host"] = c.host()
    return block


def build_manifest(*, command, experiments, params=None, engine=None,
                   wall_s: float | None = None, seed: int | None = None,
                   telemetry: dict | None = None,
                   served: dict | None = None) -> dict:
    """Assemble one provenance document (pass to :func:`write_manifest`).

    ``command`` is the argv-style invocation, ``experiments`` the ids
    that ran, ``params`` a flat dict of run parameters, ``engine`` the
    :class:`~repro.engine.engine.Engine` the trials went through (or
    None for engine-less surfaces like ``repro profile``);
    ``telemetry`` is the live session's summary block
    (:meth:`repro.obs.live.session.LiveTelemetry.summary`) when the run
    had telemetry enabled; ``served`` is the experiment service's
    request-accounting block (requests / dedup_hits / cold_runs) when
    the sweep ran inside :mod:`repro.serve`.
    """
    from repro.engine.fingerprint import core_fingerprint

    doc = {
        "schema": MANIFEST_SCHEMA,
        "command": [str(part) for part in command],
        "experiments": sorted(experiments),
        "params": dict(params or {}),
        "code_fingerprint": core_fingerprint(),
        "python": platform.python_version(),
    }
    if seed is not None:
        doc["seed"] = seed
    if engine is not None:
        doc["engine"] = engine_provenance(engine)
    if wall_s is not None:
        doc["wall_s"] = round(wall_s, 3)
    if telemetry is not None:
        doc["telemetry"] = telemetry
    if served is not None:
        doc["served"] = served
    return doc


def write_manifest(out_dir, doc: dict) -> pathlib.Path:
    """Write ``doc`` as ``<out_dir>/manifest.json`` (stable key order)."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(out_dir) -> dict | None:
    """Read a manifest back (None when absent or unparseable)."""
    path = pathlib.Path(out_dir) / MANIFEST_NAME
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
