"""RMA stress: random one-sided programs vs a sequential reference model."""

from array import array

from hypothesis import given, settings, strategies as st

from repro.core import ThreadingConfig
from repro.mpi import MpiWorld
from repro.simthread import Scheduler

WIN_BYTES = 256

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "acc"]),
        st.integers(0, WIN_BYTES // 8 - 1),   # 8-byte slot index
        st.integers(-100, 100),               # value
    ),
    min_size=1, max_size=40,
)


@given(ops=op_strategy, seed=st.integers(0, 2 ** 16),
       instances=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_single_origin_rma_matches_reference(ops, seed, instances):
    """One origin thread issues puts/accumulates with interleaved flushes;
    after the final flush the window must equal a sequential model.

    A single origin with flush-ordered epochs is the strongest case MPI
    lets us check exactly: within one epoch, ops to the same location are
    unordered, so the model flushes after every op to pin the order.
    """
    sched = Scheduler(seed=seed)
    world = MpiWorld(sched, nprocs=2,
                     config=ThreadingConfig(num_instances=instances))
    env = world.env(0)
    win = env.win_allocate(world.comm_world, WIN_BYTES)
    reference = array("q", [0] * (WIN_BYTES // 8))

    def origin(env):
        yield from env.win_lock_all(win)
        for kind, slot, value in ops:
            if kind == "put":
                data = array("q", [value]).tobytes()
                yield from env.put(win, target=1, nbytes=8,
                                   target_offset=slot * 8, data=data)
                reference[slot] = value
            else:
                yield from env.accumulate(win, 1, array("q", [value]),
                                          target_offset=slot * 8)
                reference[slot] += value
            yield from env.flush(win)
        yield from env.win_unlock_all(win)

    sched.spawn(origin(env))
    sched.run()
    assert win.buffer(1) == reference.tobytes()


@given(seed=st.integers(0, 2 ** 16), threads=st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_concurrent_accumulates_commute(seed, threads):
    """Accumulates are atomic: N threads adding 1 to one counter N times
    always total exactly N * rounds, regardless of interleaving."""
    ROUNDS = 10
    sched = Scheduler(seed=seed)
    world = MpiWorld(sched, nprocs=2,
                     config=ThreadingConfig(num_instances=max(1, threads // 2)))
    env0 = world.env(0)
    win = env0.win_allocate(world.comm_world, 8)
    win.open_epoch(0)

    def worker(env):
        for _ in range(ROUNDS):
            yield from env.accumulate(win, 1, array("q", [1]))
        yield from env.flush(win)

    for t in range(threads):
        sched.spawn(worker(world.env(0)))
    sched.run()
    assert memoryview(win.buffer(1)).cast("q")[0] == threads * ROUNDS
