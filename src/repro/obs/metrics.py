"""SPC time-series: interval sampling of counters and derived gauges.

The paper reads its SPCs once, at the end of the run; that shows *that*
matching time exploded but not *when* the convoy formed.  The
:class:`MetricsRegistry` hooks the scheduler's event loop (via
``Scheduler.set_sampler``, so an idle simulation is never kept alive by
sampling events) and appends one row whenever virtual time crosses the
configured interval:

* the aggregate SPC counters (cumulative);
* lock gauges from :meth:`MpiProcess.obs_counters` -- match-lock and
  CRI-lock cumulative wait/hold time, try-lock denials, progress calls;
* instantaneous queue depths (posted / unexpected / out-of-sequence),
  also folded into :class:`repro.util.stats.Histogram` distributions;
* CRI utilization: fraction of ``elapsed * instances`` spent holding a
  CRI lock.

``to_csv`` emits the rows in long-friendly wide form next to the other
exhibits; everything is integer or a deterministic float, so same-seed
runs produce identical CSV bytes.
"""

from __future__ import annotations

import dataclasses

from repro.util.stats import Histogram

#: (SPC fields, lock/progress gauges) carried into every row, from their
#: declarations in :mod:`repro.mpi.spc`; resolved on first use --
#: importing repro.mpi here would be circular, since the scheduler
#: imports repro.obs for its null tracer.
_COUNTERS: tuple = ()


def _counter_fields() -> tuple:
    global _COUNTERS
    if not _COUNTERS:
        from repro.mpi.spc import OBS_GAUGES, SPC

        _COUNTERS = (tuple(f.name for f in dataclasses.fields(SPC)),
                     tuple(OBS_GAUGES))
    return _COUNTERS


_DEPTH_FIELDS = ("posted_depth", "unexpected_depth", "oos_depth")


class MetricsRegistry:
    """Samples one world's counters on a virtual-time interval.

    Constructing the registry installs it as the scheduler's sampler;
    call :meth:`finalize` after ``sched.run()`` to append the final row
    (and detach).  ``interval_ns`` is virtual time, e.g. ``100_000`` for
    a sample every 100 microseconds of simulated execution.
    """

    def __init__(self, world, interval_ns: int = 100_000):
        if interval_ns < 1:
            raise ValueError("interval_ns must be >= 1")
        self.world = world
        self.interval_ns = interval_ns
        self.rows: list[dict] = []
        self.depth_histograms = {name: Histogram() for name in _DEPTH_FIELDS}
        self.due = interval_ns
        world.sched.set_sampler(self)

    # ------------------------------------------------------------------
    def sample(self, now: int) -> None:
        """Record one row at virtual time ``now`` (event-loop callback)."""
        row = {"t_ns": now}
        spc_fields, obs_fields = _counter_fields()
        spc = self.world.spc_total()
        for name in spc_fields:
            row[name] = getattr(spc, name)
        obs = self.world.obs_total()
        for name in obs_fields:
            row[name] = obs[name]
        posted = unexpected = oos = 0
        for engine in self.world.matching_engines():
            posted += len(engine.posted)
            unexpected += len(engine.unexpected)
            oos += sum(len(buf) for buf in engine.oos_buffer.values())
        row["posted_depth"] = posted
        row["unexpected_depth"] = unexpected
        row["oos_depth"] = oos
        self.depth_histograms["posted_depth"].add(posted)
        self.depth_histograms["unexpected_depth"].add(unexpected)
        self.depth_histograms["oos_depth"].add(oos)
        row["cri_utilization"] = self._cri_utilization(now, obs)
        self.rows.append(row)
        self.due = now + self.interval_ns

    def _cri_utilization(self, now: int, obs: dict) -> float:
        """Fraction of total CRI-lock capacity spent held so far."""
        instances = sum(len(p.pool.instances) for p in self.world.processes)
        if now <= 0 or instances == 0:
            return 0.0
        return round(obs["cri_lock_hold_ns"] / (now * instances), 6)

    def finalize(self) -> None:
        """Take a final sample at the current time and detach."""
        now = self.world.sched.now
        if not self.rows or self.rows[-1]["t_ns"] != now:
            self.sample(now)
        self.world.sched.set_sampler(None)

    # ------------------------------------------------------------------
    @property
    def columns(self) -> tuple:
        """CSV column names, in emit order."""
        spc_fields, obs_fields = _counter_fields()
        return (("t_ns",) + spc_fields + obs_fields + _DEPTH_FIELDS
                + ("cri_utilization",))

    def to_csv(self) -> str:
        """The time-series as CSV (one row per sample, stable columns)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def depth_summary(self) -> dict:
        """Mean / p50 / p99 / max of each sampled queue-depth series."""
        out = {}
        for name, hist in self.depth_histograms.items():
            out[name] = {
                "samples": hist.total,
                "mean": round(hist.mean(), 3),
                "p50": hist.quantile(0.50),
                "p99": hist.quantile(0.99),
            }
        return out


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
