"""Communication Resource Instance: a protected bundle of network state.

Paper section III-B: "We use the concept of a Communication Resources
Instance (CRI) to encompass resources such as network contexts, network
endpoints, and CQs with per-instance level of protection to perform
communication operations."

Here a CRI wraps one :class:`~repro.netsim.context.NetworkContext` (which
carries its completion queue and endpoint cache) and one
:class:`~repro.simthread.sync.SimLock`, named ``p<rank>/cri-<index>``
after the process that owns it.  Moving protection from the single
shared endpoint/context down to per-instance locks is what enables
concurrent sends.
"""

from __future__ import annotations

from repro.simthread.sync import SimLock


class CRI:
    """One Communication Resource Instance."""

    __slots__ = ("index", "context", "cq", "lock", "sends", "progress_calls", "dead")

    def __init__(self, sched, index: int, context, lock_costs, fairness: str,
                 rank: int):
        self.index = index
        self.context = context
        #: the context's CQ (a context never replaces it)
        self.cq = context.cq
        self.lock = SimLock(sched, lock_costs, name=f"p{rank}/cri-{index}",
                            fairness=fairness)
        self.sends = 0
        self.progress_calls = 0
        #: permanently failed (its context died); excluded from assignment
        self.dead = False

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<CRI #{self.index} ctx={self.context.index} cq={len(self.cq)}>"
