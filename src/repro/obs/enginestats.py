"""Engine counters surfaced in the observability subsystem's formats.

The experiment engine keeps SPC-style counters (trials, cache hits and
misses, journal resumes, shard skips, supervision retries/timeouts/
respawns, quarantined cache entries, per-worker busy time).  This module renders them the same way
:class:`~repro.obs.metrics.MetricsRegistry` renders the simulator's
counters -- a stable-column CSV plus a compact human summary -- so the
two surfaces read alike.  Unlike the simulator's counters some of these
are *host-level*: wall-clock, busy time and utilization vary run to
run, which is why they are written next to the artifacts
(``engine.metrics.csv``) rather than into them.
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


def engine_csv(engine) -> str:
    """The counters as a one-row CSV in :func:`engine_row` key order."""
    row = engine_row(engine)
    header = ",".join(row)
    cells = ",".join(_cell(value) for value in row.values())
    return f"{header}\n{cells}\n"


def engine_summary(engine) -> str:
    """Compact human-readable summary (what the CLI prints)."""
    return engine.summary()


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
