"""Scheduler-level event counters behind the host-time profiler.

:class:`SchedStats` tallies what the event loop actually does -- events
dispatched per command kind, heap pushes/pops, generator steps, wakes
and spawns.  Everything here is a pure function of the seed: the counts
describe the *simulation's* control flow, not the host's clock, so the
profiler can gate on them while treating host nanoseconds as weather.

The scheduler carries no stats object by default; installing one via
:meth:`repro.simthread.scheduler.Scheduler.set_stats` costs the hot
loop one attribute load and branch per operation (the same pattern the
tracer uses), so unprofiled runs are unaffected.
"""

from __future__ import annotations


class SchedStats:
    """Deterministic tallies of one scheduler's event-loop activity."""

    __slots__ = ("events_delay", "events_yield", "events_suspend",
                 "events_callback", "heap_pushes", "heap_pops",
                 "gen_steps", "wakes", "spawns")

    def __init__(self):
        self.events_delay = 0      #: Delay commands dispatched
        self.events_yield = 0      #: YieldNow commands dispatched
        self.events_suspend = 0    #: SUSPEND commands dispatched (parks)
        self.events_callback = 0   #: call_at callbacks executed
        self.heap_pushes = 0       #: insertions into either event queue
        self.heap_pops = 0         #: removals from either event queue
        self.gen_steps = 0         #: generator send() resumptions
        self.wakes = 0             #: explicit wake() calls
        self.spawns = 0            #: threads spawned

    def as_dict(self) -> dict:
        """Flat ``{counter: value}`` in ``__slots__`` order."""
        return {name: getattr(self, name) for name in self.__slots__}


def lock_rows(sched) -> list[dict]:
    """Per-:class:`~repro.simthread.sync.SimLock` counter rows.

    Every lock created against ``sched`` registers itself in creation
    order (see ``Scheduler.locks``), so the rows -- acquisition counts
    and virtual-time wait/hold totals -- are deterministic per seed.
    """
    rows = []
    for lock in sched.locks:
        rows.append({
            "name": lock.name,
            "acquisitions": lock.acquisitions,
            "contended": lock.contended_acquisitions,
            "tryfails": lock.tryfails,
            "migrations": lock.migrations,
            "wait_ns": lock.wait_time_ns,
            "hold_ns": lock.hold_time_ns,
        })
    return rows
