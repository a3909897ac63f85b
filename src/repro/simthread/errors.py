"""Exceptions raised by the simulated-threading substrate."""


class SimError(Exception):
    """Base class for all simulator errors."""


class DeadlockError(SimError):
    """The event heap drained while threads were still parked.

    Raised by :meth:`Scheduler.run` when no event remains but one or more
    simulated threads are suspended waiting for a wake-up that can never
    arrive (e.g. a lock that is never released).
    """

    def __init__(self, parked):
        self.parked = list(parked)
        names = ", ".join(t.name for t in self.parked)
        super().__init__(f"deadlock: {len(self.parked)} thread(s) parked forever: {names}")


class StallError(SimError):
    """Virtual time kept advancing but no tracked progress occurred.

    Raised by a :class:`~repro.simthread.watchdog.Watchdog` when work is
    pending (CQ events queued, frames unacked) yet nothing has completed
    for the configured stall interval -- the diagnosable form of a run
    that would otherwise spin or hang silently under faults.
    """

    def __init__(self, now: int, last_progress_at: int, pending: int, stall_ns: int):
        self.now = now
        self.last_progress_at = last_progress_at
        self.pending = pending
        self.stall_ns = stall_ns
        super().__init__(
            f"stall: {pending} unit(s) of work pending but no progress for "
            f"{now - last_progress_at} ns (watchdog threshold {stall_ns} ns, "
            f"last progress at t={last_progress_at} ns)")


class SimThreadError(SimError):
    """A simulated thread misused the substrate API.

    Examples: releasing a lock it does not own, or yielding an object
    the scheduler does not understand.
    """
