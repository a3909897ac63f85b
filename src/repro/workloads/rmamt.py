"""RMA-MT: multithreaded one-sided stress workload.

Reimplemented from the paper's description of the SNL/LANL RMA-MT
benchmark (section IV-F): a user-specified number of threads, each bound
to its own core, issue a batch of one-sided operations per message size
and synchronize with ``MPI_Win_flush``.  The initiating process runs on
node 0; the passive target on node 1 never touches the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import CostModel, ThreadingConfig
from repro.faults.install import install_faults
from repro.mpi.world import MpiWorld
from repro.netsim.fabric import FabricParams
from repro.simthread.scheduler import Scheduler

_OPS = ("put", "get")
_SYNCS = ("flush", "flush_per_window")


@dataclass(frozen=True)
class RmaMtConfig:
    """One RMA-MT run (one message size)."""

    threads: int = 8
    ops_per_thread: int = 1000
    msg_bytes: int = 8
    op: str = "put"
    sync: str = "flush"
    #: flush every this many ops under ``flush_per_window``
    window: int = 64
    seed: int = 1

    def __post_init__(self):
        if self.threads < 1 or self.ops_per_thread < 1:
            raise ValueError("threads and ops_per_thread must be >= 1")
        if self.msg_bytes < 0:
            raise ValueError("msg_bytes must be >= 0")
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.sync not in _SYNCS:
            raise ValueError(f"sync must be one of {_SYNCS}, got {self.sync!r}")

    @property
    def total_ops(self) -> int:
        """RMA operations the whole benchmark issues."""
        return self.threads * self.ops_per_thread

    def with_overrides(self, **kwargs) -> "RmaMtConfig":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


@dataclass
class RmaMtResult:
    """Outcome of one RMA-MT run."""

    config: RmaMtConfig
    message_rate: float
    elapsed_ns: int
    events_processed: int
    peak_rate: float   #: the fabric's theoretical peak for this size
    #: reliable-transport tallies when a fault plan was installed
    faults: dict | None = None


def _worker(env, win, cfg: RmaMtConfig):
    issue = env.put if cfg.op == "put" else env.get
    since_flush = 0
    for _ in range(cfg.ops_per_thread):
        yield from issue(win, target=1, nbytes=cfg.msg_bytes)
        since_flush += 1
        if cfg.sync == "flush_per_window" and since_flush >= cfg.window:
            yield from env.flush(win, target=1)
            since_flush = 0
    yield from env.flush(win, target=1)


def run_rmamt(cfg: RmaMtConfig,
              threading: ThreadingConfig | None = None,
              costs: CostModel | None = None,
              fabric: FabricParams | None = None,
              instrument=None,
              fault_plan=None,
              watchdog_ns: int | None = None) -> RmaMtResult:
    """Execute one RMA-MT run and return its result.

    ``instrument`` is an optional ``fn(sched, world)`` hook used by
    ``repro.obs`` to attach tracing/metrics (see ``run_multirate``);
    ``fault_plan``/``watchdog_ns`` arm the reliable transport and the
    no-progress watchdog (see ``run_multirate``).
    """
    sched = Scheduler(seed=cfg.seed)
    world = MpiWorld(sched, nprocs=2, nodes=2, config=threading, costs=costs,
                     fabric_params=fabric)
    if fault_plan is not None or watchdog_ns is not None:
        install_faults(world, fault_plan, watchdog_ns=watchdog_ns)
    if instrument is not None:
        instrument(sched, world)
    env0 = world.env(0, "rmamt-main")
    win = env0.win_allocate(world.comm_world, max(cfg.msg_bytes, 1) * 4)
    # The main thread opens the process's passive access epoch to every
    # target before the workers start (MPI epochs are per process).
    win.open_epoch(0)
    for t in range(cfg.threads):
        sched.spawn(_worker(world.env(0, f"rmamt-{t}"), win, cfg), name=f"rma-{t}")
    elapsed = sched.run()
    if win.outstanding(0) != 0:
        raise RuntimeError("rmamt finished with outstanding RMA operations")
    rate = cfg.total_ops / (elapsed / 1e9) if elapsed else float("inf")
    return RmaMtResult(
        config=cfg,
        message_rate=rate,
        elapsed_ns=elapsed,
        events_processed=sched.events_processed,
        peak_rate=world.fabric.params.peak_message_rate(cfg.msg_bytes),
        faults=(world.fabric.faults.stats.as_dict()
                if world.fabric.faults is not None else None),
    )
