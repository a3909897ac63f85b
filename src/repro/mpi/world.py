"""World construction: nodes, NICs, processes, communicators.

A :class:`MpiWorld` is the top-level builder.  Typical two-node setups:

* *thread mode* (the paper's focus): ``nprocs=2`` with many simulated
  threads per process;
* *process mode* (the baseline): ``nprocs=2*pairs`` single-threaded
  processes, half per node, sharing each node's NIC.

Example::

    sched = Scheduler(seed=1)
    world = MpiWorld(sched, nprocs=2,
                     config=ThreadingConfig(num_instances=20,
                                            assignment="dedicated",
                                            progress="concurrent"))
    env = world.env(rank=0, name="sender-0")
    sched.spawn(my_workload(env))
    sched.run()
"""

from __future__ import annotations

from repro.core.config import CostModel, ThreadingConfig
from repro.mpi.communicator import Communicator
from repro.mpi.errors import CommunicatorError
from repro.mpi.info import Info
from repro.mpi.process import MpiProcess
from repro.mpi.spc import SPCAggregate
from repro.netsim.fabric import Fabric, FabricParams
from repro.netsim.ib import IB_EDR


def default_placement(nprocs: int, nodes: int) -> list[int]:
    """Contiguous block placement: first half on node 0, etc."""
    if nodes < 1:
        raise ValueError("need at least one node")
    return [min(r * nodes // nprocs, nodes - 1) for r in range(nprocs)]


class MpiWorld:
    """All global state of one simulated MPI job."""

    def __init__(self, sched, nprocs: int = 2, nodes: int = 2,
                 config: ThreadingConfig | None = None,
                 costs: CostModel | None = None,
                 fabric_params: FabricParams | None = None,
                 placement: list[int] | None = None,
                 lock_fairness: str = "unfair"):
        if nprocs < 1:
            raise ValueError("need at least one process")
        self.sched = sched
        self.config = config or ThreadingConfig()
        self.costs = costs or CostModel()
        self.fabric = Fabric(sched, fabric_params or IB_EDR)
        self.nics = [self.fabric.create_nic() for _ in range(nodes)]
        placement = placement or default_placement(nprocs, nodes)
        if len(placement) != nprocs:
            raise ValueError(f"placement must list a node for each of {nprocs} ranks")
        self.placement = list(placement)
        self.processes = [
            MpiProcess(self, rank, self.nics[placement[rank]], self.config,
                       self.costs, lock_fairness)
            for rank in range(nprocs)
        ]
        self._comms: dict[int, Communicator] = {}
        self._next_comm_id = 0
        self.comm_world = self.create_comm(tuple(range(nprocs)), name="MPI_COMM_WORLD")
        #: no-progress watchdog installed by :func:`repro.faults.install.install_faults`
        self.watchdog = None

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        """Number of simulated MPI processes."""
        return len(self.processes)

    def create_comm(self, ranks: tuple[int, ...], info: Info | None = None,
                    name: str = "") -> Communicator:
        """Create a communicator over ``ranks`` with a fresh context id."""
        for r in ranks:
            if not 0 <= r < self.nprocs:
                raise CommunicatorError(f"rank {r} does not exist (nprocs={self.nprocs})")
        comm = Communicator(self, self._next_comm_id, tuple(ranks), info, name)
        self._comms[comm.id] = comm
        self._next_comm_id += 1
        return comm

    def comm_by_id(self, comm_id: int) -> Communicator:
        """Look up a communicator by context id."""
        try:
            return self._comms[comm_id]
        except KeyError:
            raise CommunicatorError(f"no communicator with id {comm_id}") from None

    # ------------------------------------------------------------------
    def env(self, rank: int, name: str | None = None):
        """Build a per-thread API handle bound to ``rank``'s process."""
        from repro.mpi.env import MpiThreadEnv

        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} does not exist (nprocs={self.nprocs})")
        return MpiThreadEnv(self.processes[rank], name)

    def latency_total(self):
        """Merged delivery-latency histogram over all processes."""
        from repro.util.latency import LatencyHistogram

        total = LatencyHistogram()
        for p in self.processes:
            total.merge(p.latency)
        return total

    def spc_total(self):
        """Aggregate SPC counters over all processes."""
        agg = SPCAggregate()
        for p in self.processes:
            agg.add(p.spc)
        return agg.total()

    def obs_total(self) -> dict:
        """Summed lock/progress observability gauges over all processes."""
        total: dict = {}
        for p in self.processes:
            for key, value in p.obs_counters().items():
                total[key] = total.get(key, 0) + value
        return total

    def matching_engines(self):
        """Every materialized matching engine (metrics sampling helper)."""
        for p in self.processes:
            for state in p.comm_states:
                yield state.matching

    def __repr__(self):  # pragma: no cover - debug aid
        return (f"<MpiWorld nprocs={self.nprocs} nodes={len(self.nics)} "
                f"config={self.config}>")
