"""Thread-local storage for simulated threads.

The paper's *dedicated* instance-assignment strategy stores the thread's
Communication Resource Instance in TLS (C11 ``_Thread_local`` / GCC
``__thread``).  Reads of initialized TLS are a couple of cycles on real
hardware, so accesses here are cost-free; the assignment logic that *uses*
TLS charges its own costs.
"""

from __future__ import annotations

from repro.simthread.errors import SimThreadError


_UNSET = object()


class ThreadLocal:
    """One logical thread-local variable, keyed by the current thread."""

    __slots__ = ("_sched", "_values", "_default")

    def __init__(self, sched, default=None):
        self._sched = sched
        self._values: dict = {}
        self._default = default

    def _me(self):
        me = self._sched.current
        if me is None:
            raise SimThreadError("thread-local access outside a simulated thread")
        return me

    def get(self):
        """This thread's value, or the default; a hit is one dict lookup."""
        value = self._values.get(self._sched.current, _UNSET)
        if value is _UNSET:
            self._me()
            return self._default
        return value

    def set(self, value) -> None:
        """Bind ``value`` to the calling thread."""
        self._values[self._me()] = value
