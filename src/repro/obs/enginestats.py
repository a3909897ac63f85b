"""Engine counters surfaced in the observability subsystem's formats.

The experiment engine keeps SPC-style counters (trials, cache hits and
misses, shard skips, supervision retries/timeouts/respawns, quarantined
cache entries, per-worker busy time).  This module renders them the
same way :class:`~repro.obs.metrics.MetricsRegistry` renders the
simulator's counters -- a stable-column CSV -- so the two surfaces read
alike; :meth:`~repro.engine.engine.Engine.summary` is the compact human
line.  Unlike the simulator's counters some of these are *host-level*:
wall-clock, busy time and utilization vary run to run, which is why
they are written next to the artifacts (``engine.metrics.csv``) rather
than into them.
:func:`sweep_progress` derives a sweep's progress and ETA from the row,
for the heartbeat and for ``tools/lint_events.py`` alike.
"""

from __future__ import annotations


def engine_row(engine) -> dict:
    """One flat dict of the engine's counters plus derived gauges.

    The keys are
    :meth:`~repro.engine.engine.EngineCounters.as_row`'s, in declaration
    order, followed by ``jobs`` and ``utilization``.
    """
    row = engine.counters.as_row()
    row["jobs"] = engine.jobs
    row["utilization"] = round(engine.utilization(), 6)
    return row


def sweep_progress(row: dict) -> tuple[dict, float | None]:
    """The heartbeat's ``progress`` block and ``eta_s`` for one row.

    A planned trial is done once it is a cache hit, a shard skip or
    computed.  The ETA is the trials left times the mean computed-trial
    cost (``busy_ns / computed``) per worker; None before any trial was
    computed, as there is nothing to extrapolate from.
    """
    planned = row["trials"]
    computed = row["cache_misses"] + row["uncacheable"]
    done = computed + row["cache_hits"] + row["shard_skipped"]
    progress = {"planned": planned, "done": done, "computed": computed,
                "cache_hits": row["cache_hits"],
                "shard_skipped": row["shard_skipped"]}
    if planned:
        progress["pct"] = round(100.0 * done / planned, 1)
    left = planned - done
    if left <= 0:
        return progress, 0.0
    if not computed:
        return progress, None
    mean_s = row["busy_ns"] / computed / 1e9
    return progress, round(left * mean_s / max(1, row["jobs"]), 3)


def engine_csv(engine) -> str:
    """The counters as a one-row CSV in :func:`engine_row` key order."""
    row = engine_row(engine)
    header = ",".join(row)
    cells = ",".join(_cell(value) for value in row.values())
    return f"{header}\n{cells}\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
