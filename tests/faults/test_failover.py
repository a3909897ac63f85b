"""CRI failover: context death, pool drain, dedicated re-assignment."""

import pytest

from repro.core import ThreadingConfig
from repro.experiments.testbeds import ALEMBERT
from repro.faults.install import install_faults
from repro.faults.plan import ContextFailure, FaultPlan, drop_plan
from repro.mpi.world import MpiWorld
from repro.simthread import Delay, Scheduler
from repro.workloads.multirate import MultirateConfig, run_multirate

DEDICATED_10 = ThreadingConfig(num_instances=10, assignment="dedicated",
                               progress="concurrent")


def make_world(sched, instances=4):
    return MpiWorld(sched, nprocs=2,
                    config=ThreadingConfig(num_instances=instances,
                                           assignment="dedicated"))


def test_fail_instance_shrinks_pool_and_sets_failover(sched):
    pool = make_world(sched, instances=4).processes[0].pool
    victim = pool.instances[1]
    survivor = pool.fail_instance(1)
    assert len(pool) == 3
    assert victim.dead and victim.context.failed
    assert victim not in pool.instances
    assert survivor in pool.instances
    assert victim.context.failover is survivor.context
    assert victim.context.live() is survivor.context
    assert pool.failed_instances == [victim]


def test_fail_instance_drains_cq_into_survivor(sched):
    pool = make_world(sched, instances=3).processes[0].pool
    victim = pool.instances[0]
    victim.cq.push("pending-event")
    survivor = pool.fail_instance(0)
    assert len(victim.cq) == 0
    assert "pending-event" in survivor.cq.poll()
    assert pool.drained_events == 1


def test_fail_instance_is_idempotent_and_guards_last_survivor(sched):
    pool = make_world(sched, instances=2).processes[0].pool
    assert pool.fail_instance(0) is not None
    assert pool.fail_instance(0) is None      # already dead
    assert pool.fail_instance(99) is None     # unknown index
    with pytest.raises(RuntimeError, match="last surviving"):
        pool.fail_instance(1)


def test_dedicated_assignment_migrates_off_dead_instance(sched):
    world = make_world(sched, instances=3)
    pool = world.processes[0].pool
    picks = []

    def worker():
        cri = yield from pool.get_instance()
        picks.append(cri)
        yield Delay(1000)
        cri = yield from pool.get_instance()
        picks.append(cri)

    sched.spawn(worker())
    # first touch assigns instance 0; kill it while the worker sleeps
    sched.call_at(500, pool.fail_instance, 0)
    sched.run()
    first, second = picks
    assert first.index == 0 and first.dead
    assert second is not first and not second.dead
    assert pool.migrations == 1


def test_progress_migrates_off_dead_dedicated_instance(sched):
    proc = MpiWorld(sched, nprocs=2, config=DEDICATED_10).processes[0]
    pool = proc.pool
    out = []

    def worker():
        yield from proc.progress_engine.progress()
        out.append(pool.tls.get())
        pool.fail_instance(out[0].index)
        yield from proc.progress_engine.progress()
        out.append(pool.tls.get())

    sched.spawn(worker())
    sched.run()
    first, second = out
    assert first.index == 0 and first.dead
    # the next progress call re-ran the assignment over the survivors
    assert second in pool.instances and not second.dead
    assert pool.migrations == 1


def test_context_kill_mid_run_completes_with_migration():
    plan = FaultPlan(seed=3, context_failures=(
        ContextFailure(at_ns=50_000, rank=0, instance=1),))
    cfg = MultirateConfig(pairs=4, window=32, windows=3)
    result = run_multirate(cfg, threading=DEDICATED_10, fault_plan=plan)
    assert sum(result.per_pair_received) == cfg.total_messages
    assert result.faults["context_kills"] == 1
    assert result.spc.cri_migrations >= 1


def test_context_kill_under_packet_loss_still_recovers():
    plan = drop_plan(0.02, seed=5).with_overrides(context_failures=(
        ContextFailure(at_ns=40_000, rank=0, instance=0),
        ContextFailure(at_ns=80_000, rank=1, instance=2),))
    cfg = MultirateConfig(pairs=4, window=32, windows=3)
    result = run_multirate(cfg, threading=DEDICATED_10, fault_plan=plan,
                           watchdog_ns=50_000_000)
    assert sum(result.per_pair_received) == cfg.total_messages
    assert result.faults["context_kills"] == 2


@pytest.mark.parametrize("seed, assignment, pinned", [
    (1, "dedicated", (1365453, 30851)),
    (2, "dedicated", (1375022, 30531)),
    (3, "round_robin", (1421427, 32979)),
])
def test_fallback_scan_survives_failover(seed, assignment, pinned):
    """Two CRIs die while Algorithm 2's fallback scans are in flight.

    Each scan step must index the live, shrunken instance list with a
    ticket reduced modulo its size *after* the yield that drew it; a scan
    that hoists ``len(instances)`` raises IndexError on all three runs.
    ``(elapsed_ns, events_processed)`` is pinned, so a poll-path change
    must also leave virtual time where it was."""
    plan = FaultPlan(context_failures=(
        ContextFailure(120_000, rank=0, instance=1),
        ContextFailure(127_000, rank=1, instance=2)))
    cfg = MultirateConfig(pairs=8, window=32, windows=2, seed=seed)
    threading = ThreadingConfig(num_instances=4, assignment=assignment,
                                progress="concurrent")
    result = run_multirate(cfg, threading=threading, costs=ALEMBERT.costs,
                           fabric=ALEMBERT.fabric, fault_plan=plan)
    assert result.faults["context_kills"] == 2
    assert (result.elapsed_ns, result.events_processed) == pinned


def test_install_faults_rejects_out_of_range_rank(sched):
    world = make_world(sched)
    plan = FaultPlan(context_failures=(ContextFailure(10, rank=9, instance=0),))
    with pytest.raises(ValueError, match="rank 9"):
        install_faults(world, plan)
