"""The CRI pool and Algorithm 1's thread-to-instance assignment.

The pool is the paper's "centralized body to assign the allocated
instances to threads".  Two strategies:

* **round-robin** (``GET-INSTANCE-ID--ROUND-ROBIN``): an atomic counter
  hands out instances first-come first-served per call.  No lock
  contention on the counter itself (a cheap atomic), good load balancing,
  but a thread's consecutive operations land on different instances --
  which costs an instance-switch penalty and spreads one sequence stream
  over many connections.
* **dedicated** (``GET-INSTANCE-ID--DEDICATED``): first touch assigns via
  round-robin and caches the instance in thread-local storage; every later
  call is a TLS hit.  With threads <= instances this eliminates instance
  lock contention entirely; with more threads than instances (hardware
  context limits), threads share instances and contention reappears --
  the pool supports both, as the paper requires.
"""

from __future__ import annotations

from repro.core.config import DEDICATED, CostModel, ThreadingConfig
from repro.core.cri import CRI
from repro.simthread.atomics import AtomicCounter
from repro.simthread.scheduler import Delay
from repro.simthread.tls import ThreadLocal


class CRIPool:
    """Allocates CRIs on one process's NIC and assigns them to threads."""

    def __init__(self, sched, nic, config: ThreadingConfig, costs: CostModel,
                 lock_fairness: str = "unfair", rank: int = 0):
        self.sched = sched
        self.config = config
        self.costs = costs
        #: the owning process's rank; it scopes the names of its locks
        self.rank = rank
        self.instances: list[CRI] = []
        for i in range(config.num_instances):
            ctx = nic.create_context()
            self.instances.append(CRI(sched, i, ctx, costs.cri_lock_costs(),
                                      lock_fairness, rank))
        self._rr = AtomicCounter(sched, cost_ns=costs.atomic_rmw_ns)
        #: the cost of one ticket (:meth:`take_ticket`), yielded by the caller
        self.ticket_delay = self._rr.cost_delay
        #: each thread's dedicated CRI; a live hit needs no generator
        self.tls = ThreadLocal(sched)
        self._last_used = ThreadLocal(sched)
        self._dedicated = config.assignment == DEDICATED
        self.switches = 0
        #: owning process's SPC (set by the MPI layer; ``None`` standalone)
        self.spc = None
        self.failed_instances: list[CRI] = []
        #: CQ events rescued from dead instances into survivors
        self.drained_events = 0
        #: dedicated (TLS) assignments re-run because the instance died
        self.migrations = 0

    def __len__(self) -> int:
        return len(self.instances)

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def fail_instance(self, index: int):
        """Permanently fail the CRI created with ``index``; returns the
        survivor that inherits its traffic (or ``None`` if already dead).

        Plain callback (no yields): marks the CRI and its context dead,
        removes it from the assignment rotation, drains its pending CQ
        events into a deterministic survivor and points the dead
        context's failover there, so in-flight deliveries and acks land
        on a context some thread still progresses.  Threads re-run
        Algorithm 1 over the survivors on their next assignment.
        """
        victim = None
        for cri in self.instances:
            if cri.index == index:
                victim = cri
                break
        if victim is None:
            return None  # unknown or already failed: nothing to do
        if len(self.instances) == 1:
            raise RuntimeError(
                f"cannot fail {victim.lock.name}: it is the pool's last surviving instance")
        victim.dead = True
        victim.context.failed = True
        self.instances.remove(victim)
        self.failed_instances.append(victim)
        survivor = self.instances[index % len(self.instances)]
        victim.context.failover = survivor.context
        rescued = victim.cq.poll()
        for event in rescued:
            survivor.cq.push(event)
        self.drained_events += len(rescued)
        return survivor

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def take_ticket(self) -> int:
        """Algorithm 1's fetch-add on the shared counter, as a plain call.

        Returns the ticket.  The caller then yields :attr:`ticket_delay`
        and indexes ``instances[ticket % len(instances)]`` after that
        yield, on the live list a failover may have shrunk meanwhile.
        Each step of Algorithm 2's fallback scan takes one ticket too.
        The body is :meth:`AtomicCounter.fetch_add`'s, inlined: the scan
        takes a ticket on almost every event it runs.
        """
        rr = self._rr
        ticket = rr._value
        rr._value = ticket + 1
        rr.operations += 1
        return ticket

    def get_instance_round_robin(self):
        """Generator: next instance via the shared atomic counter."""
        ticket = self.take_ticket()
        yield self.ticket_delay
        return self.instances[ticket % len(self.instances)]

    def get_instance_dedicated(self):
        """Generator: this thread's permanent instance (TLS-cached).

        A cached instance that has since died triggers a *migration*:
        the assignment is re-run over the survivors (and counted in the
        ``cri_migrations`` SPC).
        """
        cri = self.tls.get()
        if cri is not None and cri.dead:
            self.migrations += 1
            if self.spc is not None:
                self.spc.cri_migrations += 1
            cri = None
        if cri is None:
            cri = yield from self.get_instance_round_robin()
            self.tls.set(cri)
        return cri

    def warm_instance(self):
        """The calling thread's warm CRI, or ``None``: a plain call.

        A CRI is warm under dedicated assignment when it is the thread's
        live TLS hit and also the CRI the thread used last; taking it
        costs no virtual time, so :meth:`get_instance` would yield
        nothing.  Callers build that generator only on a miss::

            cri = pool.warm_instance()
            if cri is None:
                cri = yield from pool.get_instance()
        """
        if self._dedicated:
            cri = self.tls.get()
            if cri is not None and not cri.dead and self._last_used.get() is cri:
                return cri
        return None

    def get_instance(self, switch_ns: int | None = None):
        """Generator: assignment per the configured strategy, charging the
        instance-switch penalty when the thread changes instance.

        ``switch_ns`` overrides the penalty; one-sided callers pass the
        larger RMA value (re-arming endpoint/rkey state on a different
        context costs far more than touching a warm one, which is much of
        why round-robin trails dedicated so badly in Figures 6 and 7).
        """
        if self._dedicated:
            cri = self.tls.get()
            if cri is None or cri.dead:  # first touch or migration
                cri = yield from self.get_instance_dedicated()
        else:
            cri = yield from self.get_instance_round_robin()
        last = self._last_used.get()
        if last is not None and last is not cri:
            self.switches += 1
            yield Delay(self.costs.instance_switch_ns if switch_ns is None else switch_ns)
        self._last_used.set(cri)
        return cri
