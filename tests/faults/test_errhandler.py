"""Error handling under transport exhaustion: FATAL vs RETURN."""

import pytest

from repro.core import ThreadingConfig
from repro.faults.install import install_faults
from repro.faults.plan import FaultPlan, RetransmitPolicy
from repro.mpi.errors import (
    ERRORS_ARE_FATAL,
    ERRORS_RETURN,
    TransportError,
)
from repro.mpi.world import MpiWorld
from repro.simthread import Scheduler
from repro.workloads.multirate import MultirateConfig, run_multirate

#: lose everything fast: exhaustion after three transmissions
BLACKHOLE = FaultPlan(seed=1, drop_rate=1.0,
                      retransmit=RetransmitPolicy(timeout_ns=5_000,
                                                  max_retries=2, jitter_ns=0))


def make_world(plan=BLACKHOLE):
    sched = Scheduler(seed=4, jitter=0.0)
    world = MpiWorld(sched, nprocs=2,
                     config=ThreadingConfig(num_instances=2,
                                            assignment="dedicated"))
    install_faults(world, plan)
    return sched, world


def test_errors_are_fatal_raises_from_the_run():
    sched, world = make_world()
    assert world.comm_world.errhandler == ERRORS_ARE_FATAL

    def sender(env):
        req = yield from env.isend(world.comm_world, dst=1, tag=0, nbytes=0)
        yield from env.wait(req)

    sched.spawn(sender(world.env(0)))
    with pytest.raises(TransportError, match="retry budget exhausted"):
        sched.run()


def test_errors_return_surfaces_from_wait():
    sched, world = make_world()
    world.comm_world.set_errhandler(ERRORS_RETURN)
    caught = []

    def sender(env):
        req = yield from env.isend(world.comm_world, dst=1, tag=0, nbytes=0)
        try:
            yield from env.wait(req)
        except TransportError as exc:
            caught.append((req, exc))

    sched.spawn(sender(world.env(0)))
    sched.run()
    (req, exc), = caught
    assert req.completed and req.error is exc
    assert "send 0->1" in str(exc)
    assert world.processes[0].spc.transport_exhausted == 1


def test_errors_return_surfaces_rma_failure_from_flush():
    sched, world = make_world()
    world.comm_world.set_errhandler(ERRORS_RETURN)
    caught = []

    def origin(env):
        win = env.win_allocate(world.comm_world, 256)
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=64)
        try:
            yield from env.flush(win, target=1)
        except TransportError as exc:
            caught.append(exc)
        # the failed op was retired: nothing stays outstanding
        assert win.outstanding(0, 1) == 0
        assert win.outstanding(0) == 0

    sched.spawn(origin(world.env(0)))
    sched.run()
    assert len(caught) == 1
    assert "rma put" in str(caught[0])


def test_rma_failure_is_fatal_by_default():
    sched, world = make_world()

    def origin(env):
        win = env.win_allocate(world.comm_world, 256)
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=64)
        yield from env.flush(win, target=1)

    sched.spawn(origin(world.env(0)))
    with pytest.raises(TransportError, match="rma put"):
        sched.run()


def test_set_errhandler_validates():
    sched, world = make_world(plan=None)
    with pytest.raises(ValueError, match="errhandler"):
        world.comm_world.set_errhandler("ignore")


def test_multirate_completes_when_losses_stay_within_budget():
    # 30% loss is heavy but the default budget (6 retries) rides it out:
    # no error handler ever fires.
    cfg = MultirateConfig(pairs=2, window=16, windows=2)
    plan = FaultPlan(seed=2, drop_rate=0.3)
    result = run_multirate(cfg, fault_plan=plan)
    assert sum(result.per_pair_received) == cfg.total_messages
    assert result.spc.transport_exhausted == 0
