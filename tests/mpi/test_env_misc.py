"""Remaining env/plumbing behaviours not covered elsewhere."""

import pytest

from repro.core import ThreadingConfig
from repro.mpi import MpiWorld
from repro.simthread import Delay, Scheduler
from tests.conftest import make_world


def test_env_identity_and_properties(sched, world):
    env = world.env(1, name="worker-7")
    assert env.rank == 1
    assert env.name == "worker-7"
    assert env.world is world
    assert env.sched is sched
    assert env.costs is world.costs
    default = world.env(0)
    assert default.name == "rank0-thread"


def test_waitall_empty_sequence_is_noop(sched, world):
    def body(env):
        yield from env.waitall([])
        return "done"

    t = sched.spawn(body(world.env(0)))
    sched.run()
    assert t.result == "done"


def test_progress_returns_int_count(sched, world):
    def sender(env):
        for _ in range(3):
            yield from env.isend(world.comm_world, dst=1, tag=0)

    def receiver(env):
        for _ in range(3):
            yield from env.irecv(world.comm_world, src=0, tag=0)
        yield Delay(100_000)
        n = yield from env.process.progress_engine.progress()
        return n

    sched.spawn(sender(world.env(0)))
    t = sched.spawn(receiver(world.env(1)))
    sched.run()
    assert isinstance(t.result, int) and t.result >= 1


def test_wait_on_already_completed_request_is_cheap(sched, world):
    def pair(env_s, env_r):
        def sender(env):
            yield from env.send(world.comm_world, dst=1, tag=0)

        def receiver(env):
            req = yield from env.irecv(world.comm_world, src=0, tag=0)
            yield from env.wait(req)
            before = env.sched.now
            yield from env.wait(req)  # second wait: immediate
            return env.sched.now - before

        sched.spawn(sender(env_s))
        return sched.spawn(receiver(env_r))

    t = pair(world.env(0), world.env(1))
    sched.run()
    assert t.result == 0


def test_bidirectional_traffic_on_one_comm(sched, world):
    """Both processes send and receive simultaneously on the same comm."""
    N = 30

    def node(env, peer):
        sends = []
        for i in range(N):
            sends.append((yield from env.isend(world.comm_world, dst=peer,
                                               tag=1, payload=(env.rank, i))))
        got = []
        for _ in range(N):
            data, _ = yield from env.recv(world.comm_world, src=peer, tag=1)
            got.append(data)
        yield from env.waitall(sends)
        return got

    a = sched.spawn(node(world.env(0), 1))
    b = sched.spawn(node(world.env(1), 0))
    sched.run()
    assert a.result == [(1, i) for i in range(N)]
    assert b.result == [(0, i) for i in range(N)]


def test_three_party_ring(sched):
    world = make_world(sched, nprocs=3)
    N = 10

    def node(env):
        right = (env.rank + 1) % 3
        left = (env.rank - 1) % 3
        total = 0
        for i in range(N):
            # both started before either is waited on: no ring deadlock
            send = yield from env.isend(world.comm_world, dst=right, tag=2,
                                        payload=env.rank * 100 + i)
            recv = yield from env.irecv(world.comm_world, src=left, tag=2)
            yield from env.waitall((recv, send))
            total += recv.data
        return total

    threads = [sched.spawn(node(world.env(r))) for r in range(3)]
    sched.run()
    for r, t in enumerate(threads):
        left = (r - 1) % 3
        assert t.result == sum(left * 100 + i for i in range(N))


def test_many_worlds_share_one_scheduler(sched):
    """Two independent worlds can coexist on one scheduler (e.g. for
    side-by-side comparisons in one virtual timeline)."""
    w1 = make_world(sched)
    w2 = make_world(sched)

    def pair(world, payload):
        def sender(env):
            yield from env.send(world.comm_world, dst=1, tag=0, payload=payload)

        def receiver(env):
            data, _ = yield from env.recv(world.comm_world, src=0, tag=0)
            return data

        sched.spawn(sender(world.env(0)))
        return sched.spawn(receiver(world.env(1)))

    r1 = pair(w1, "w1")
    r2 = pair(w2, "w2")
    sched.run()
    assert (r1.result, r2.result) == ("w1", "w2")


def test_single_process_world_self_send(sched):
    world = make_world(sched, nprocs=1)

    def body(env):
        req = yield from env.isend(world.comm_world, dst=0, tag=0, payload="me")
        data, _ = yield from env.recv(world.comm_world, src=0, tag=0)
        yield from env.wait(req)
        return data

    t = sched.spawn(body(world.env(0)))
    sched.run()
    assert t.result == "me"


def test_rmamt_determinism():
    from repro.workloads import RmaMtConfig, run_rmamt

    cfg = RmaMtConfig(threads=4, ops_per_thread=40, seed=9)
    assert run_rmamt(cfg).elapsed_ns == run_rmamt(cfg).elapsed_ns


def test_trials_produce_spread(sched):
    """Different seeds give different (but same-regime) rates."""
    from repro.workloads import MultirateConfig, run_multirate

    rates = {run_multirate(MultirateConfig(pairs=4, window=16, windows=2,
                                           seed=s)).message_rate
             for s in range(5)}
    assert len(rates) == 5
    assert max(rates) < 2 * min(rates)
