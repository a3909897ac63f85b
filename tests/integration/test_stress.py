"""Integration stress: randomized traffic against MPI's guarantees.

Hypothesis generates small random communication plans; the invariants
checked are the ones the MPI standard (and the paper's matching engine)
must uphold no matter how the simulator interleaves things:

* every message is delivered exactly once, to a matching receive;
* per (sender thread, tag) streams arrive in send order;
* payloads are never corrupted or cross-delivered between tags;
* the SPC totals balance.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ThreadingConfig
from repro.mpi import MpiWorld
from repro.simthread import Scheduler

plan_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),          # sender thread / tag lane
        st.integers(0, 40),         # payload token
        st.sampled_from([0, 8, 100, 20_000]),  # message size (incl. rendezvous)
    ),
    min_size=1, max_size=60,
)


@given(plan=plan_strategy, seed=st.integers(0, 2 ** 16),
       instances=st.integers(1, 6),
       progress=st.sampled_from(["serial", "concurrent"]),
       assignment=st.sampled_from(["dedicated", "round_robin"]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_traffic_obeys_mpi_guarantees(plan, seed, instances, progress,
                                             assignment):
    sched = Scheduler(seed=seed)
    world = MpiWorld(sched, nprocs=2,
                     config=ThreadingConfig(num_instances=instances,
                                            assignment=assignment,
                                            progress=progress))
    comm = world.comm_world

    by_lane = {lane: [] for lane in range(4)}
    for lane, token, size in plan:
        by_lane[lane].append((token, size))

    received = {lane: [] for lane in range(4)}

    def sender(env, lane):
        for i, (token, size) in enumerate(by_lane[lane]):
            yield from env.send(comm, dst=1, tag=lane, nbytes=size,
                                payload=(lane, i, token))

    def receiver(env, lane):
        for _ in by_lane[lane]:
            data, status = yield from env.recv(comm, src=0, tag=lane,
                                               nbytes=1 << 20)
            assert status.tag == lane and status.source == 0
            received[lane].append(data)

    for lane in range(4):
        if by_lane[lane]:
            sched.spawn(sender(world.env(0), lane))
            sched.spawn(receiver(world.env(1), lane))
    sched.run()

    for lane, msgs in by_lane.items():
        assert received[lane] == [(lane, i, token)
                                  for i, (token, _) in enumerate(msgs)]
    spc = world.spc_total()
    assert spc.messages_sent == len(plan)
    assert spc.messages_received == len(plan)


@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_whole_workload_is_deterministic(seed):
    from repro.workloads import MultirateConfig, run_multirate

    cfg = MultirateConfig(pairs=3, window=16, windows=2, seed=seed)
    a = run_multirate(cfg)
    b = run_multirate(cfg)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.spc.as_dict() == b.spc.as_dict()


@given(nprocs=st.integers(2, 5), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_random_collective_round(nprocs, seed):
    sched = Scheduler(seed=seed)
    world = MpiWorld(sched, nprocs=nprocs,
                     config=ThreadingConfig(num_instances=2))
    comm = world.comm_world

    def body(env):
        total = yield from env.allreduce(comm, value=env.rank + 1)
        # list concatenation in rank order makes allreduce an allgather
        gathered = yield from env.allreduce(comm, value=[env.rank],
                                            op=lambda a, b: a + b)
        return total, gathered

    threads = [sched.spawn(body(world.env(r))) for r in range(nprocs)]
    sched.run()
    expected_sum = nprocs * (nprocs + 1) // 2
    for t in threads:
        total, gathered = t.result
        assert total == expected_sum
        assert gathered == list(range(nprocs))
