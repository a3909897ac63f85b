"""Two-sided posting, delivery order, completion queues."""

from repro.netsim import Fabric, FabricParams
from repro.netsim.cq import RecvArrival, SendCompletion
from repro.netsim.message import ENVELOPE_BYTES, Envelope
from repro.simthread import Scheduler


def build(params=None, seed=0, jitter=0.0):
    sched = Scheduler(seed=seed, jitter=jitter)
    fab = Fabric(sched, params or FabricParams(wire_jitter_ns=0))
    n0, n1 = fab.create_nic(), fab.create_nic()
    c0, c1 = n0.create_context(), n1.create_context()
    return sched, fab, c0, c1


def send_n(sched, src_ctx, dst_ctx, n, request=None, start_seq=0):
    ep = src_ctx.endpoint_to(dst_ctx)

    def sender():
        for i in range(n):
            env = Envelope(src=0, dst=1, comm_id=0, tag=1, seq=start_seq + i,
                           nbytes=0, send_request=request)
            yield src_ctx.post_send(ep, env)

    sched.spawn(sender())


def test_endpoint_cache_reuses_connection():
    _, _, c0, c1 = build()
    assert c0.endpoint_to(c1) is c0.endpoint_to(c1)


def test_fifo_delivery_on_one_connection():
    sched, _, c0, c1 = build(FabricParams(wire_jitter_ns=5000))  # heavy jitter
    send_n(sched, c0, c1, 50)
    sched.run()
    events = c1.cq.poll()
    seqs = [e.envelope.seq for e in events if isinstance(e, RecvArrival)]
    assert seqs == list(range(50))  # connection FIFO survives jitter


def test_cross_connection_reordering_happens():
    sched = Scheduler(seed=5, jitter=0.0)
    fab = Fabric(sched, FabricParams(wire_jitter_ns=3000, pipeline_gap_ns=1))
    n0, n1 = fab.create_nic(), fab.create_nic()
    ctxs0 = [n0.create_context() for _ in range(4)]
    dst = n1.create_context()

    def sender(ctx, seqs):
        ep = ctx.endpoint_to(dst)
        for s in seqs:
            yield ctx.post_send(ep, Envelope(0, 1, 0, 1, s, 0))

    for i, ctx in enumerate(ctxs0):
        sched.spawn(sender(ctx, range(i * 10, i * 10 + 10)))
    sched.run()
    # the CQ preserves delivery order, so its seq sequence IS the arrival order
    arrivals = [e.envelope.seq for e in dst.cq.poll() if isinstance(e, RecvArrival)]
    assert sorted(arrivals) == list(range(40))
    assert arrivals != sorted(arrivals)  # jitter across connections reorders


def test_send_completion_lands_in_sender_cq():
    sched, _, c0, c1 = build()
    marker = object()
    send_n(sched, c0, c1, 3, request=marker)
    sched.run()
    comps = [e for e in c0.cq.poll() if isinstance(e, SendCompletion)]
    assert len(comps) == 3
    assert all(c.request is marker for c in comps)


def test_no_send_completion_without_request():
    sched, _, c0, c1 = build()
    send_n(sched, c0, c1, 3, request=None)
    sched.run()
    assert len(c0.cq) == 0


def test_envelope_wire_bytes_include_header():
    env = Envelope(0, 1, 0, 1, 0, nbytes=100)
    assert env.wire_bytes == 100 + ENVELOPE_BYTES


def test_delivery_records_timestamps():
    sched, _, c0, c1 = build()
    send_n(sched, c0, c1, 1)
    sched.run()
    env = c1.cq.poll()[0].envelope
    assert env.sent_at == 0
    assert env.arrived_at > env.sent_at


def test_cq_poll_batches_and_watermark():
    sched, _, c0, c1 = build()
    send_n(sched, c0, c1, 10)
    sched.run()
    assert c1.cq.high_watermark == 10
    first = c1.cq.poll(max_events=4)
    assert len(first) == 4 and len(c1.cq) == 6
    rest = c1.cq.poll()
    assert len(rest) == 6 and not c1.cq.pending
    assert c1.cq.events_polled == 10


def test_doorbell_cost_charged_to_caller():
    sched, _, c0, c1 = build(FabricParams(doorbell_ns=90, wire_jitter_ns=0))
    send_n(sched, c0, c1, 1)
    ep = c0.endpoint_to(c1)

    def one_send():
        env = Envelope(0, 1, 0, 1, 99, 0)
        before = sched.now
        yield c0.post_send(ep, env)
        assert sched.now - before == 90

    sched.spawn(one_send())
    sched.run()
