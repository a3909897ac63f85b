"""Rendezvous protocol: RTS/CTS/DATA for messages above the eager limit."""

import pytest

from repro.core import CostModel, ThreadingConfig
from repro.mpi import MpiWorld, TruncationError
from repro.netsim.message import CTS, DATA, EAGER, ENVELOPE_BYTES, RTS, Envelope
from repro.simthread import Delay, Scheduler
from tests.conftest import make_world

BIG = 100_000  # > default eager limit (8192)


def run_pair(sched, world, sender_body, receiver_body):
    s = sched.spawn(sender_body(world.env(0)), name="s")
    r = sched.spawn(receiver_body(world.env(1)), name="r")
    sched.run()
    return s, r


class TestEnvelopeKinds:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Envelope(0, 1, 0, 0, 0, 0, kind="ack")

    def test_wire_bytes_by_kind(self):
        assert Envelope(0, 1, 0, 0, 0, BIG, kind=RTS).wire_bytes == ENVELOPE_BYTES
        assert Envelope(0, 1, 0, 0, 0, 0, kind=CTS).wire_bytes == ENVELOPE_BYTES
        assert Envelope(0, 1, 0, 0, 0, BIG, kind=DATA).wire_bytes == BIG + ENVELOPE_BYTES
        assert Envelope(0, 1, 0, 0, 0, 10, kind=EAGER).wire_bytes == 10 + ENVELOPE_BYTES


def test_large_message_roundtrip_with_payload(sched, world):
    payload = bytes(range(256)) * 4

    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=3, nbytes=BIG,
                            payload=payload)

    def receiver(env):
        data, status = yield from env.recv(world.comm_world, src=0, tag=3,
                                           nbytes=BIG)
        return data, status

    _, r = run_pair(sched, world, sender, receiver)
    data, status = r.result
    assert data == payload
    assert status.nbytes == BIG
    assert world.processes[0].spc.rendezvous_sends == 1


def test_eager_messages_do_not_use_rendezvous(sched, world):
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=0, nbytes=1000)

    def receiver(env):
        yield from env.recv(world.comm_world, src=0, tag=0)

    run_pair(sched, world, sender, receiver)
    assert world.processes[0].spc.rendezvous_sends == 0
    assert world.processes[0].rndv.data_sent == 0


def test_eager_limit_is_configurable(sched):
    world = make_world(sched, costs=CostModel(eager_limit_bytes=100))

    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=0, nbytes=101)

    def receiver(env):
        yield from env.recv(world.comm_world, src=0, tag=0)

    run_pair(sched, world, sender, receiver)
    assert world.processes[0].spc.rendezvous_sends == 1


def test_unexpected_rts_matched_by_late_post(sched, world):
    """An RTS arriving before the receive sits in the unexpected queue;
    the CTS goes out when the receive is finally posted."""
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=9, nbytes=BIG,
                            payload="bulk")

    def receiver(env):
        yield Delay(300_000)
        # drain the RTS into the unexpected queue
        yield from env.process.progress_engine.progress()
        data, _ = yield from env.recv(world.comm_world, src=0, tag=9, nbytes=BIG)
        return data

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == "bulk"
    assert world.processes[1].spc.unexpected_messages == 1


def test_rendezvous_and_eager_interleave_in_order(sched, world):
    """FIFO holds across the protocol switch: both share the seq stream."""
    def sender(env):
        for i in range(12):
            nbytes = BIG if i % 3 == 0 else 10
            yield from env.send(world.comm_world, dst=1, tag=1, nbytes=nbytes,
                                payload=i)

    def receiver(env):
        got = []
        for _ in range(12):
            data, _ = yield from env.recv(world.comm_world, src=0, tag=1,
                                          nbytes=BIG)
            got.append(data)
        return got

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == list(range(12))
    assert world.processes[0].spc.rendezvous_sends == 4


def test_rendezvous_truncation_fails_receiver_but_completes_sender(sched, world):
    def sender(env):
        # Must complete even though the receiver's buffer is too small.
        yield from env.send(world.comm_world, dst=1, tag=0, nbytes=BIG)
        return "sender done"

    def receiver(env):
        req = yield from env.irecv(world.comm_world, src=0, tag=0, nbytes=64)
        with pytest.raises(TruncationError):
            yield from env.wait(req)
        return "raised"

    s, r = run_pair(sched, world, sender, receiver)
    assert s.result == "sender done"
    assert r.result == "raised"


def test_rendezvous_is_slower_than_eager_for_single_message(quiet_sched):
    """Three trips beat one only for bandwidth, not latency."""
    def one_transfer(eager_limit):
        sched = Scheduler(seed=1, jitter=0.0)
        world = make_world(sched, costs=CostModel(eager_limit_bytes=eager_limit))

        def sender(env):
            yield from env.send(world.comm_world, dst=1, tag=0, nbytes=9000)

        def receiver(env):
            yield from env.recv(world.comm_world, src=0, tag=0)

        sched.spawn(sender(world.env(0)))
        sched.spawn(receiver(world.env(1)))
        return sched.run()

    eager_time = one_transfer(eager_limit=16384)   # 9000B goes eagerly
    rndv_time = one_transfer(eager_limit=8192)     # 9000B goes rendezvous
    assert rndv_time > eager_time


def test_multithreaded_rendezvous_traffic(sched):
    world = make_world(sched, nprocs=2, instances=4, progress="concurrent")
    comm = world.comm_world
    NT, N = 4, 6

    def sender(env, tag):
        for i in range(N):
            yield from env.send(comm, dst=1, tag=tag, nbytes=BIG, payload=(tag, i))

    def receiver(env, tag):
        got = []
        for _ in range(N):
            data, _ = yield from env.recv(comm, src=0, tag=tag, nbytes=BIG)
            got.append(data)
        return got

    recvs = []
    for t in range(NT):
        sched.spawn(sender(world.env(0), t))
        recvs.append(sched.spawn(receiver(world.env(1), t)))
    sched.run()
    for t, r in enumerate(recvs):
        assert r.result == [(t, i) for i in range(N)]
    assert world.processes[0].spc.rendezvous_sends == NT * N
    assert world.processes[0].rndv.data_sent == NT * N
    assert world.processes[1].rndv.cts_sent == NT * N
