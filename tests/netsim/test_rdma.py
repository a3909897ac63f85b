"""RDMA engine: one-sided semantics and hardware-counter completion."""

import pytest

from repro.netsim import Fabric, FabricParams
from repro.netsim.rdma import RmaOp
from repro.simthread import Scheduler


def build(params=None):
    sched = Scheduler(seed=0, jitter=0.0)
    fab = Fabric(sched, params or FabricParams(wire_jitter_ns=0))
    n0, n1 = fab.create_nic(), fab.create_nic()
    return sched, n0.create_context(), n1.create_context()


def test_rma_op_validation():
    with pytest.raises(ValueError):
        RmaOp("push", 8)
    with pytest.raises(ValueError):
        RmaOp("put", -1)


def test_put_applies_remotely_then_completes():
    sched, c0, c1 = build()
    target = bytearray(8)
    stamps = {}

    def remote_fn(op):
        stamps["applied"] = sched.now
        target[:] = b"ABCDEFGH"

    op = RmaOp("put", 8, remote_fn=remote_fn)

    def issuer():
        ep = c0.endpoint_to(c1)
        yield c0.post_rma(ep, op)
        stamps["posted"] = sched.now

    sched.spawn(issuer())
    sched.run()
    assert bytes(target) == b"ABCDEFGH"
    assert op.completed
    # the remote write happens strictly after posting returns (async)
    assert stamps["applied"] > stamps["posted"]


def test_completion_is_hardware_counter_not_cq_event():
    sched, c0, c1 = build()
    op = RmaOp("put", 4)

    def issuer():
        yield c0.post_rma(c0.endpoint_to(c1), op)

    sched.spawn(issuer())
    sched.run()
    assert op.completed
    assert len(c0.cq) == 0  # no software CQ event to drain


def test_get_returns_data_and_pays_return_bandwidth():
    params = FabricParams(wire_jitter_ns=0, per_byte_ns=1.0,
                          rdma_ack_latency_ns=100)
    sched, c0, c1 = build(params)
    source = b"x" * 1000

    put_done = {}

    def remote_read(op):
        return source

    small = RmaOp("get", 10, remote_fn=remote_read)
    big = RmaOp("get", 1000, remote_fn=remote_read)

    def issuer():
        ep = c0.endpoint_to(c1)
        yield c0.post_rma(ep, small)
        yield c0.post_rma(ep, big)

    sched.spawn(issuer())
    sched.run()
    assert small.result == source and big.result == source
    # bigger payload takes longer to come back
    assert big.remote_applied_at is not None
    assert small.completed and big.completed


def test_get_wire_bytes_are_request_sized():
    assert RmaOp("get", 100_000).wire_bytes == 16
    assert RmaOp("put", 100).wire_bytes == 116


def test_on_completed_notification():
    sched, c0, c1 = build()
    op = RmaOp("put", 0)
    fired = []
    op.on_completed = lambda: fired.append(sched.now)

    def issuer():
        yield c0.post_rma(c0.endpoint_to(c1), op)

    sched.spawn(issuer())
    sched.run()
    assert len(fired) == 1


def test_ordering_of_many_puts_completions_monotone():
    sched, c0, c1 = build()
    ops = [RmaOp("put", 8) for _ in range(20)]

    def issuer():
        ep = c0.endpoint_to(c1)
        for op in ops:
            yield c0.post_rma(ep, op)

    sched.spawn(issuer())
    sched.run()
    assert all(op.completed for op in ops)
    assert c0.rma_posted == 20
