"""Collective operations over the p2p substrate.

``allreduce`` is the one collective on :class:`MpiThreadEnv`; the linear
``reduce`` and ``bcast`` beneath it are driven through
:mod:`repro.mpi.collectives` directly.
"""

import pytest

from repro.mpi import RankError, collectives
from tests.conftest import make_world


def spawn_all(sched, world, body, nprocs):
    threads = [sched.spawn(body(world.env(r)), name=f"rank{r}") for r in range(nprocs)]
    sched.run()
    return threads


def test_barrier_releases_nobody_early(sched):
    """allreduce synchronizes like a barrier: no rank leaves it before
    the slowest rank has arrived."""
    world = make_world(sched, nprocs=4)
    release = []

    def body(env):
        from repro.simthread import Delay
        yield Delay(env.rank * 10_000)  # heavy stagger
        yield from env.allreduce(world.comm_world, value=0)
        release.append(env.sched.now)

    spawn_all(sched, world, body, 4)
    assert len(release) == 4
    assert min(release) >= 30_000  # not before the slowest arrival


def test_bcast_delivers_root_payload(sched):
    world = make_world(sched, nprocs=5)

    def body(env):
        payload = {"data": [1, 2, 3]} if env.rank == 2 else None
        value = yield from collectives.bcast(env, world.comm_world, root=2,
                                             payload=payload)
        return value

    threads = spawn_all(sched, world, body, 5)
    assert all(t.result == {"data": [1, 2, 3]} for t in threads)


def test_reduce_sum_and_order(sched):
    world = make_world(sched, nprocs=4)

    def body(env):
        result = yield from collectives.reduce(env, world.comm_world, root=0,
                                               value=env.rank + 1)
        return result

    threads = spawn_all(sched, world, body, 4)
    assert threads[0].result == 10
    assert all(t.result is None for t in threads[1:])


def test_reduce_noncommutative_callable_is_rank_ordered(sched):
    world = make_world(sched, nprocs=3)

    def body(env):
        result = yield from collectives.reduce(env, world.comm_world, root=0,
                                               value=str(env.rank),
                                               op=lambda a, b: a + b)
        return result

    threads = spawn_all(sched, world, body, 3)
    assert threads[0].result == "012"


def test_reduce_min_max(sched):
    world = make_world(sched, nprocs=3)

    def body(env):
        mx = yield from collectives.reduce(env, world.comm_world, root=0,
                                           value=env.rank, op=collectives.MAX)
        mn = yield from collectives.reduce(env, world.comm_world, root=0,
                                           value=env.rank, op=collectives.MIN)
        return mx, mn

    threads = spawn_all(sched, world, body, 3)
    assert threads[0].result == (2, 0)


def test_allreduce_everyone_gets_result(sched):
    world = make_world(sched, nprocs=4)

    def body(env):
        result = yield from env.allreduce(world.comm_world, value=2 ** env.rank)
        return result

    threads = spawn_all(sched, world, body, 4)
    assert all(t.result == 15 for t in threads)


def test_gather_ordered_by_rank(sched):
    """An allreduce of one-element lists under concatenation gathers
    the values in rank order, at every rank."""
    world = make_world(sched, nprocs=4)

    def body(env):
        result = yield from env.allreduce(world.comm_world,
                                          value=[f"r{env.rank}"],
                                          op=lambda a, b: a + b)
        return result

    threads = spawn_all(sched, world, body, 4)
    assert all(t.result == ["r0", "r1", "r2", "r3"] for t in threads)


def test_collectives_on_subcommunicator(sched):
    world = make_world(sched, nprocs=4)
    sub = world.create_comm((1, 3))

    def member(env):
        result = yield from env.allreduce(sub, value=env.rank)
        return result

    threads = [sched.spawn(member(world.env(r))) for r in (1, 3)]
    sched.run()
    assert all(t.result == 4 for t in threads)


def test_back_to_back_collectives_do_not_cross_match(sched):
    world = make_world(sched, nprocs=3)

    def body(env):
        results = []
        for round_no in range(5):
            r = yield from env.allreduce(world.comm_world, value=round_no * 10 + env.rank)
            results.append(r)
        return results

    threads = spawn_all(sched, world, body, 3)
    expected = [sum(r * 10 + k for k in range(3)) for r in range(5)]
    assert all(t.result == expected for t in threads)


def test_unknown_reduction_op_rejected(sched):
    world = make_world(sched, nprocs=2)

    def body(env):
        yield from env.allreduce(world.comm_world, value=1, op="median")

    sched.spawn(body(world.env(0)))
    with pytest.raises(ValueError, match="unknown reduction"):
        sched.run()


def test_invalid_root_rejected(sched):
    world = make_world(sched, nprocs=2)

    def body(env):
        yield from collectives.bcast(env, world.comm_world, root=9)

    sched.spawn(body(world.env(0)))
    with pytest.raises(RankError):
        sched.run()
