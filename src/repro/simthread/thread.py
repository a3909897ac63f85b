"""Simulated thread handle.

A :class:`SimThread` wraps a user generator.  The scheduler resumes the
generator at the appropriate virtual instants; the handle records state
and result.  Identity (``id(thread)``) is the thread's key for
thread-local storage.
"""

from __future__ import annotations


class SimThread:
    """Handle for one simulated thread.

    Attributes
    ----------
    name:
        Human-readable label, used in error messages and traces.
    done:
        True once the generator returned or raised.
    result:
        The generator's return value (``None`` until done).
    started_at / finished_at:
        Virtual timestamps bracketing the thread's lifetime.
    """

    __slots__ = (
        "_sched",
        "_gen",
        "_send",
        "name",
        "done",
        "failed",
        "result",
        "started_at",
        "finished_at",
        "_resume_value",
        "_parked",
    )

    def __init__(self, sched, gen, name: str):
        self._sched = sched
        self._gen = gen
        # prebound for the scheduler hot loop: one attribute load instead
        # of two per generator step
        self._send = gen.send
        self.name = name
        self.done = False
        self.failed = False
        self.result = None
        self.started_at = sched.now
        self.finished_at: int | None = None
        self._resume_value = None
        self._parked = False

    # ------------------------------------------------------------------
    def _finish(self, result) -> None:
        self.done = True
        self.result = result
        self.finished_at = self._sched.now

    def _abort(self, exc) -> None:
        self.done = True
        self.failed = True
        self.finished_at = self._sched.now

    def __repr__(self):  # pragma: no cover - debug aid
        state = "done" if self.done else ("parked" if self._parked else "ready")
        return f"<SimThread {self.name} {state}>"
