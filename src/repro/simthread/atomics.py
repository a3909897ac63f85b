"""Modeled atomic operations.

Within the discrete-event model a read-modify-write executed between two
yields is atomic by construction (threads are never preempted mid-step), so
this class only needs to (a) charge the hardware cost of an atomic RMW and
(b) expose the familiar fetch-and-add interface the paper's round-robin
instance assignment relies on (Algorithm 1).

The *value* is updated at the instant the operation starts -- later callers
observe later values -- while the caller pays the RMW latency before
continuing, matching how an x86 ``lock xadd`` globally orders immediately
but stalls the issuing core.
"""

from __future__ import annotations

from repro.simthread.scheduler import Delay


class AtomicCounter:
    """Atomic integer with fetch-and-add semantics."""

    __slots__ = ("_sched", "_value", "cost_ns", "operations", "cost_delay")

    def __init__(self, sched, start: int = 0, cost_ns: int = 30):
        self._sched = sched
        self._value = start
        self.cost_ns = cost_ns
        self.operations = 0
        #: the RMW latency, one reusable record the caller yields after
        #: :meth:`fetch_add` (hot: sequence counters and round-robin
        #: tickets hit this per message)
        self.cost_delay = Delay(cost_ns)

    def fetch_add(self, n: int = 1) -> int:
        """Atomically add ``n``; returns the previous value.

        A plain call: the caller then yields :attr:`cost_delay`::

            seq = counter.fetch_add()
            yield counter.cost_delay
        """
        old = self._value
        self._value = old + n
        self.operations += 1
        return old
