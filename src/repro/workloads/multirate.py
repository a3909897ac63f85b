"""Multirate-pairwise: the paper's two-sided message-rate workload.

Reimplemented from the paper's description (section IV): pairs of
communication entities flood messages from node 0 to node 1 in windows of
nonblocking operations.  Zero-byte messages carry only the ~28-byte
matching envelope, isolating the cost of the message-handling path.

Options map one-to-one to the paper's experiments:

* ``comm_per_pair`` -- a private communicator per pair (the concurrent-
  matching simulation of section III-F / Figure 3c);
* ``allow_overtaking`` -- sets ``mpi_assert_allow_overtaking`` on the
  benchmark communicator(s), disabling sequence validation (section IV-D);
* ``any_tag`` -- receivers post ``MPI_ANY_TAG``, making every match hit
  the head of the posted queue (the Figure 4 tweak);
* ``entity_mode`` -- threads / processes / hybrid (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import CostModel, ThreadingConfig
from repro.faults.install import install_faults
from repro.mpi.constants import ANY_TAG
from repro.mpi.info import ALLOW_OVERTAKING, Info
from repro.mpi.spc import SPC
from repro.mpi.world import MpiWorld
from repro.netsim.fabric import FabricParams
from repro.simthread.scheduler import Scheduler
from repro.workloads.patterns import pair_bindings, world_shape


@dataclass(frozen=True)
class MultirateConfig:
    """One Multirate-pairwise run."""

    pairs: int = 8
    window: int = 128
    windows: int = 3
    msg_bytes: int = 0
    entity_mode: str = "threads"
    comm_per_pair: bool = False
    allow_overtaking: bool = False
    any_tag: bool = False
    seed: int = 1

    def __post_init__(self):
        if self.pairs < 1 or self.window < 1 or self.windows < 1:
            raise ValueError("pairs, window and windows must all be >= 1")
        if self.msg_bytes < 0:
            raise ValueError("msg_bytes must be >= 0")

    @property
    def total_messages(self) -> int:
        """Messages the whole benchmark sends (pairs x window x windows)."""
        return self.pairs * self.window * self.windows

    def with_overrides(self, **kwargs) -> "MultirateConfig":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


@dataclass
class MultirateResult:
    """Outcome of one run."""

    config: MultirateConfig
    message_rate: float          #: messages per second (virtual time)
    elapsed_ns: int
    spc: SPC                     #: aggregated software performance counters
    events_processed: int
    per_pair_received: list = field(default_factory=list)
    #: end-to-end delivery latency summary (count/mean/p50/p99/min/max, ns)
    latency: dict = field(default_factory=dict)
    #: reliable-transport tallies when a fault plan was installed
    faults: dict | None = None

    @property
    def messages(self) -> int:
        """Total messages the run was configured to send."""
        return self.config.total_messages


def _sender(env, comm, binding, cfg: MultirateConfig):
    for _ in range(cfg.windows):
        reqs = []
        for _ in range(cfg.window):
            req = yield from env.isend(comm, dst=binding.recv_rank,
                                       tag=binding.tag, nbytes=cfg.msg_bytes)
            reqs.append(req)
        yield from env.waitall(reqs)


def _receiver(env, comm, binding, cfg: MultirateConfig, counters, idx):
    tag = ANY_TAG if cfg.any_tag else binding.tag
    src = binding.send_rank
    for _ in range(cfg.windows):
        reqs = []
        for _ in range(cfg.window):
            req = yield from env.irecv(comm, src=src, tag=tag)
            reqs.append(req)
        yield from env.waitall(reqs)
        counters[idx] += cfg.window


def run_multirate(cfg: MultirateConfig,
                  threading: ThreadingConfig | None = None,
                  costs: CostModel | None = None,
                  fabric: FabricParams | None = None,
                  lock_fairness: str = "unfair",
                  instrument=None,
                  fault_plan=None,
                  watchdog_ns: int | None = None) -> MultirateResult:
    """Execute one Multirate-pairwise run and return its result.

    ``instrument`` is an optional ``fn(sched, world)`` called after world
    construction and before any thread is spawned; the observability
    layer uses it to attach a :class:`repro.obs.tracer.Tracer` and/or a
    :class:`repro.obs.metrics.MetricsRegistry` without changing the run
    itself.  ``fault_plan`` (a :class:`repro.faults.plan.FaultPlan`) arms
    the reliable transport; ``watchdog_ns`` installs a no-progress
    watchdog.  With both ``None`` the run is byte-identical to the
    pre-fault code path.
    """
    sched = Scheduler(seed=cfg.seed)
    nprocs, placement = world_shape(cfg.entity_mode, cfg.pairs)
    world = MpiWorld(sched, nprocs=nprocs, nodes=2, config=threading,
                     costs=costs, fabric_params=fabric, placement=placement,
                     lock_fairness=lock_fairness)
    if fault_plan is not None or watchdog_ns is not None:
        install_faults(world, fault_plan, watchdog_ns=watchdog_ns)
    if instrument is not None:
        instrument(sched, world)
    info = Info({ALLOW_OVERTAKING: True}) if cfg.allow_overtaking else None

    bindings = pair_bindings(cfg.entity_mode, cfg.pairs)
    if cfg.comm_per_pair:
        comms = [world.create_comm((b.send_rank, b.recv_rank), info=info,
                                   name=f"pair-{b.pair}") for b in bindings]
    else:
        shared = world.create_comm(tuple(range(nprocs)), info=info, name="bench")
        comms = [shared] * cfg.pairs

    counters = [0] * cfg.pairs
    for b, comm in zip(bindings, comms):
        world.sched.spawn(_sender(world.env(b.send_rank), comm, b, cfg),
                          name=f"send-{b.pair}")
        world.sched.spawn(_receiver(world.env(b.recv_rank), comm, b, cfg,
                                    counters, b.pair),
                          name=f"recv-{b.pair}")
    elapsed = sched.run()
    if sum(counters) != cfg.total_messages:
        raise RuntimeError(
            f"multirate lost messages: received {sum(counters)} of {cfg.total_messages}")
    rate = cfg.total_messages / (elapsed / 1e9) if elapsed else float("inf")
    return MultirateResult(
        config=cfg,
        message_rate=rate,
        elapsed_ns=elapsed,
        spc=world.spc_total(),
        events_processed=sched.events_processed,
        per_pair_received=counters,
        latency=world.latency_total().summary(),
        faults=(world.fabric.faults.stats.as_dict()
                if world.fabric.faults is not None else None),
    )
