"""Reliable transport at the netsim layer: frames, acks, retransmission.

These tests drive :class:`repro.netsim.transport.ReliableLink` directly
through raw contexts and envelopes -- no MPI layer -- so every assertion
is about the wire protocol itself.
"""

import pytest

from repro.faults.plan import FaultPlan, RetransmitPolicy, drop_plan
from repro.netsim import Fabric, FabricParams
from repro.netsim.cq import RecvArrival, SendCompletion, TransportFailure
from repro.netsim.message import Envelope
from repro.netsim.rdma import RmaOp
from repro.simthread import Scheduler

#: tight budget so exhaustion tests finish in a handful of timeouts
FAST_RETRY = RetransmitPolicy(timeout_ns=5_000, backoff=2.0, max_retries=2,
                              jitter_ns=100)


def make_wire(plan, seed=3):
    """A fabric with ``plan`` attached plus one connected context pair."""
    sched = Scheduler(seed=seed, jitter=0.0)
    fabric = Fabric(sched, FabricParams(wire_jitter_ns=0))
    fabric.attach_faults(plan)
    nic = fabric.create_nic()
    src, dst = nic.create_context(), nic.create_context()
    return sched, fabric, src, dst, src.endpoint_to(dst)


def post(sched, ctx, endpoint, envelope):
    def thread():
        yield ctx.post_send(endpoint, envelope)

    sched.spawn(thread())


def envelope(seq, request=None, nbytes=0):
    return Envelope(src=0, dst=1, comm_id=1, tag=7, seq=seq, nbytes=nbytes,
                    send_request=request)


class FakeRequest:
    pass


def test_clean_wire_delivers_once_and_completes_on_ack():
    sched, fabric, src, dst, ep = make_wire(FaultPlan(seed=1))
    req = FakeRequest()
    post(sched, src, ep, envelope(0, req))
    sched.run()
    arrivals = [e for e in dst.cq.poll() if isinstance(e, RecvArrival)]
    completions = [e for e in src.cq.poll() if isinstance(e, SendCompletion)]
    assert len(arrivals) == 1 and arrivals[0].envelope.seq == 0
    assert len(completions) == 1 and completions[0].request is req
    stats = fabric.faults.stats
    assert stats.frames == 1 and stats.acks == 1
    assert stats.retransmits == 0 and stats.in_flight == 0


def test_total_loss_exhausts_budget_with_error_completion():
    plan = FaultPlan(seed=1, drop_rate=1.0, retransmit=FAST_RETRY)
    sched, fabric, src, dst, ep = make_wire(plan)
    req = FakeRequest()
    post(sched, src, ep, envelope(0, req))
    sched.run()
    assert len(dst.cq) == 0
    failures = [e for e in src.cq.poll() if isinstance(e, TransportFailure)]
    assert len(failures) == 1
    assert failures[0].envelope.send_request is req
    assert "exhausted" in failures[0].reason
    stats = fabric.faults.stats
    # first transmission + max_retries retransmissions, all dropped
    assert stats.drops == 1 + FAST_RETRY.max_retries
    assert stats.retransmits == FAST_RETRY.max_retries
    assert stats.exhausted == 1 and stats.in_flight == 0


def test_duplicates_are_delivered_once_and_reacked():
    plan = FaultPlan(seed=1, dup_rate=1.0)
    sched, fabric, src, dst, ep = make_wire(plan)
    for seq in range(5):
        post(sched, src, ep, envelope(seq))
    sched.run()
    arrivals = [e for e in dst.cq.poll() if isinstance(e, RecvArrival)]
    assert sorted(a.envelope.seq for a in arrivals) == list(range(5))
    stats = fabric.faults.stats
    assert stats.dups == 5
    assert stats.duplicates_dropped == 5  # every second copy discarded
    assert stats.in_flight == 0


def test_corruption_is_discarded_and_recovered_by_retransmit():
    # Corrupt every copy: the payload never goes up, the sender exhausts.
    plan = FaultPlan(seed=1, corrupt_rate=1.0, retransmit=FAST_RETRY)
    sched, fabric, src, dst, ep = make_wire(plan)
    post(sched, src, ep, envelope(0))
    sched.run()
    assert len(dst.cq) == 0
    stats = fabric.faults.stats
    assert stats.corrupts == 1 + FAST_RETRY.max_retries
    assert stats.exhausted == 1


def test_ack_loss_triggers_retransmit_and_receiver_dedup():
    plan = FaultPlan(seed=5, ack_drop_rate=0.5)
    sched, fabric, src, dst, ep = make_wire(plan)
    reqs = [FakeRequest() for _ in range(20)]
    for seq, req in enumerate(reqs):
        post(sched, src, ep, envelope(seq, req))
    sched.run()
    arrivals = [e for e in dst.cq.poll() if isinstance(e, RecvArrival)]
    completions = [e for e in src.cq.poll() if isinstance(e, SendCompletion)]
    # every message delivered exactly once, every request acked exactly once
    assert sorted(a.envelope.seq for a in arrivals) == list(range(20))
    assert {id(c.request) for c in completions} == {id(r) for r in reqs}
    stats = fabric.faults.stats
    assert stats.ack_drops > 0
    assert stats.duplicates_dropped > 0   # retransmits of already-delivered frames
    assert stats.in_flight == 0


def test_delay_spike_defers_delivery():
    spike = 500_000
    plan = FaultPlan(seed=1, delay_spike_rate=1.0, delay_spike_ns=spike)
    sched, fabric, src, dst, ep = make_wire(plan)
    post(sched, src, ep, envelope(0))
    sched.run()
    arrivals = [e for e in dst.cq.poll() if isinstance(e, RecvArrival)]
    assert len(arrivals) == 1
    assert arrivals[0].envelope.arrived_at >= spike
    assert fabric.faults.stats.spikes >= 1


def test_degrade_window_scales_drop_rate():
    from repro.faults.plan import DegradeWindow

    # Base drop 0; inside the window the factor is irrelevant (0 * k = 0),
    # so use a small base rate and a saturating factor instead.
    plan = FaultPlan(seed=2, drop_rate=0.01,
                     degrade_windows=(DegradeWindow(0, 10**9, drop_factor=100.0),),
                     retransmit=RetransmitPolicy(timeout_ns=5_000, max_retries=20,
                                                 jitter_ns=0))
    sched, fabric, src, dst, ep = make_wire(plan)
    for seq in range(10):
        post(sched, src, ep, envelope(seq))
    sched.run()
    stats = fabric.faults.stats
    # effective rate 1.0 inside the window: every first attempt drops
    assert stats.drops >= 10
    arrivals = [e for e in dst.cq.poll() if isinstance(e, RecvArrival)]
    assert sorted(a.envelope.seq for a in arrivals) == list(range(10))


def test_rma_op_completes_at_ack_and_exhausts_to_failure():
    applied = []
    plan = FaultPlan(seed=1)
    sched, fabric, src, dst, ep = make_wire(plan)
    op = RmaOp("put", 64, remote_fn=lambda o: applied.append(sched.now))

    def thread():
        yield src.post_rma(ep, op)

    sched.spawn(thread())
    sched.run()
    assert applied and op.completed
    assert len(src.cq) == 0  # the ack is a hardware counter, not a CQ event

    plan = FaultPlan(seed=1, drop_rate=1.0, retransmit=FAST_RETRY)
    sched, fabric, src, dst, ep = make_wire(plan)
    op = RmaOp("put", 64, remote_fn=lambda o: None)

    def thread2():
        yield src.post_rma(ep, op)

    sched.spawn(thread2())
    sched.run()
    failures = [e for e in src.cq.poll() if isinstance(e, TransportFailure)]
    assert len(failures) == 1 and failures[0].op is op
    assert not op.completed


def test_same_plan_same_seed_is_deterministic():
    def run_once():
        plan = FaultPlan(seed=9, drop_rate=0.3, dup_rate=0.2, ack_drop_rate=0.2,
                         retransmit=RetransmitPolicy(jitter_ns=1_000))
        sched, fabric, src, dst, ep = make_wire(plan, seed=4)
        for seq in range(30):
            post(sched, src, ep, envelope(seq))
        elapsed = sched.run()
        return elapsed, fabric.faults.stats.as_dict()

    assert run_once() == run_once()
