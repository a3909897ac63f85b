"""Sequence validation, out-of-sequence buffering, overtaking."""

import pytest

from repro.mpi import Info, MpiWorld
from repro.mpi.info import ALLOW_OVERTAKING
from repro.netsim.message import Envelope
from repro.simthread import Delay, Scheduler
from tests.conftest import make_world


def feed_arrivals(world, comm, seqs, payloads=None):
    """Inject envelopes directly into the receiver's matching engine via
    its context CQ, in the given (possibly out-of-order) sequence order."""
    receiver = world.processes[1]
    ctx = receiver.pool.instances[0].context
    for i, seq in enumerate(seqs):
        payload = payloads[i] if payloads else f"m{seq}"
        ctx.deliver(Envelope(src=0, dst=1, comm_id=comm.id, tag=0, seq=seq,
                             nbytes=0, payload=payload))


def test_send_sequence_is_shared_per_peer_and_gap_free(world):
    state = world.processes[0].comm_state(world.comm_world)
    to_one = state.send_seq(1)
    assert state.send_seq(1) is to_one  # every sending thread shares it
    assert [to_one() for _ in range(3)] == [0, 1, 2]
    assert state.send_seq(0)() == 0  # one counter per peer
    assert state.seq_delay.ns == world.processes[0].costs.atomic_rmw_ns


def test_out_of_order_arrivals_delivered_in_seq_order(sched, world):
    comm = world.comm_world
    world.processes[1].comm_state(comm)  # instantiate matching state
    feed_arrivals(world, comm, [3, 0, 2, 1, 4])

    def receiver(env):
        got = []
        for _ in range(5):
            data, _ = yield from env.recv(comm, src=0, tag=0)
            got.append(data)
        return got

    r = sched.spawn(receiver(world.env(1)))
    sched.run()
    assert r.result == ["m0", "m1", "m2", "m3", "m4"]
    spc = world.processes[1].spc
    # 3 arrives before 0 (buffered), 2 arrives before 1 (buffered); 0, 1
    # and 4 are each in sequence at their arrival.
    assert spc.out_of_sequence == 2
    assert spc.oos_buffered_high_watermark >= 1


def test_oos_count_matches_arrival_pattern(sched, world):
    comm = world.comm_world
    world.processes[1].comm_state(comm)
    # Arrival order 4,3,2,1,0: everything except the final 0 is premature.
    feed_arrivals(world, comm, [4, 3, 2, 1, 0])

    def receiver(env):
        for _ in range(5):
            yield from env.recv(comm, src=0, tag=0)

    sched.spawn(receiver(world.env(1)))
    sched.run()
    spc = world.processes[1].spc
    assert spc.out_of_sequence == 4
    assert spc.oos_buffered_high_watermark == 4


def test_overtaking_skips_sequence_validation(sched, world):
    comm = world.create_comm((0, 1), info=Info({ALLOW_OVERTAKING: True}))
    world.processes[1].comm_state(comm)
    feed_arrivals(world, comm, [4, 3, 2, 1, 0])

    def receiver(env):
        got = []
        for _ in range(5):
            data, _ = yield from env.recv(comm, src=0, tag=0)
            got.append(data)
        return got

    r = sched.spawn(receiver(world.env(1)))
    sched.run()
    # Messages match immediately in *arrival* order; none buffered.
    assert r.result == ["m4", "m3", "m2", "m1", "m0"]
    spc = world.processes[1].spc
    assert spc.out_of_sequence == 0
    assert spc.oos_buffered_high_watermark == 0


def test_sequence_streams_are_per_source(sched):
    world = make_world(sched, nprocs=3)
    comm = world.comm_world
    receiver_proc = world.processes[2]
    receiver_proc.comm_state(comm)
    ctx = receiver_proc.pool.instances[0].context
    # src 0 delivers seq 1 then 0 (out of order); src 1 delivers seq 0 in
    # order.  src 1's stream must not be blocked by src 0's gap.
    ctx.deliver(Envelope(src=0, dst=2, comm_id=comm.id, tag=0, seq=1, nbytes=0, payload="a1"))
    ctx.deliver(Envelope(src=1, dst=2, comm_id=comm.id, tag=0, seq=0, nbytes=0, payload="b0"))

    def receiver(env):
        data, status = yield from env.recv(comm, src=1, tag=0)
        return data

    r = sched.spawn(receiver(world.env(2)))
    sched.run()
    assert r.result == "b0"
    assert receiver_proc.spc.out_of_sequence == 1  # src 0's premature seq 1


def test_multithreaded_senders_produce_oos_and_correct_totals(sched):
    world = make_world(sched, nprocs=2, instances=4)
    comm = world.comm_world
    NT, N = 4, 40

    def sender(env, tag):
        for i in range(N):
            yield from env.send(comm, dst=1, tag=tag, payload=(tag, i))

    def receiver(env, tag):
        got = []
        for _ in range(N):
            data, _ = yield from env.recv(comm, src=0, tag=tag)
            got.append(data)
        return got

    recvs = []
    for t in range(NT):
        sched.spawn(sender(world.env(0), t))
        recvs.append(sched.spawn(receiver(world.env(1), t)))
    sched.run()
    for t, r in enumerate(recvs):
        assert r.result == [(t, i) for i in range(N)]  # per-thread FIFO holds
    spc = world.spc_total()
    assert spc.messages_received == NT * N
    assert spc.out_of_sequence > 0  # concurrency produced reordering


def test_match_time_accumulates(sched, world):
    comm = world.comm_world

    def sender(env):
        for i in range(20):
            yield from env.send(comm, dst=1, tag=0)

    def receiver(env):
        for _ in range(20):
            yield from env.recv(comm, src=0, tag=0)

    sched.spawn(sender(world.env(0)))
    sched.spawn(receiver(world.env(1)))
    sched.run()
    spc = world.processes[1].spc
    assert spc.match_time_ns > 0
    assert spc.recv_posted == 20
    assert spc.messages_received == 20
