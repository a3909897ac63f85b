"""Endpoint ordering modes and NIC accounting details."""

from repro.netsim import Fabric, FabricParams
from repro.netsim.endpoint import Endpoint
from repro.netsim.message import Envelope
from repro.simthread import Scheduler


def test_fifo_clamps_delivery_times():
    sched = Scheduler(jitter=0.0)
    fab = Fabric(sched, FabricParams())
    n0, n1 = fab.create_nic(), fab.create_nic()
    ep = Endpoint(n0.create_context(), n1.create_context(), fifo=True)
    assert ep.fifo_delivery_time(1000) == 1000
    assert ep.fifo_delivery_time(500) == 1001   # clamped behind predecessor
    assert ep.fifo_delivery_time(5000) == 5000
    assert ep.messages == 3


def test_non_fifo_endpoint_delivers_as_computed():
    sched = Scheduler(jitter=0.0)
    fab = Fabric(sched, FabricParams())
    n0, n1 = fab.create_nic(), fab.create_nic()
    ep = Endpoint(n0.create_context(), n1.create_context(), fifo=False)
    assert ep.fifo_delivery_time(1000) == 1000
    assert ep.fifo_delivery_time(500) == 500    # reordering allowed


def test_separate_directions_are_separate_endpoints():
    sched = Scheduler(jitter=0.0)
    fab = Fabric(sched, FabricParams(wire_jitter_ns=0))
    n0, n1 = fab.create_nic(), fab.create_nic()
    c0, c1 = n0.create_context(), n1.create_context()
    forward = c0.endpoint_to(c1)
    backward = c1.endpoint_to(c0)
    assert forward is not backward
    assert forward.dst_ctx is c1 and backward.dst_ctx is c0


def test_nic_counts_multiple_contexts_independently():
    sched = Scheduler(jitter=0.0)
    fab = Fabric(sched, FabricParams(inject_overhead_ns=10, pipeline_gap_ns=1,
                                     per_byte_ns=0.0, wire_jitter_ns=0))
    nic = fab.create_nic()
    a, b = nic.create_context(), nic.create_context()
    dst = fab.create_nic().create_context()

    def sender(ctx, n):
        ep = ctx.endpoint_to(dst)
        for i in range(n):
            yield ctx.post_send(ep, Envelope(0, 1, 0, 0, i, 0))

    sched.spawn(sender(a, 3))
    sched.spawn(sender(b, 5))
    sched.run()
    assert a.sends_posted == 3 and b.sends_posted == 5
    assert nic.messages_injected == 8
    assert len(dst.cq) == 8
