"""Network context: one injection queue plus one completion queue.

This is the hardware resource a Communication Resource Instance wraps.
Posting is asynchronous, as on real NICs: the calling thread pays only the
doorbell cost; injection, wire transfer, delivery and completion are
scheduled as future events.  Concurrent access to one context is *not*
safe in real hardware/driver stacks, which is exactly why the MPI layer
must lock it -- the simulator mirrors that by leaving all protection to
the caller.
"""

from __future__ import annotations

from repro.simthread.scheduler import Delay
from repro.netsim.cq import CompletionQueue, RecvArrival, SendCompletion
from repro.netsim.endpoint import Endpoint


class NetworkContext:
    """One injection queue + CQ pair on a NIC."""

    __slots__ = ("nic", "index", "cq", "inject_free_at", "_endpoints",
                 "sends_posted", "rma_posted", "spc", "failed", "failover",
                 "fabric", "sched", "_doorbell_delay")

    def __init__(self, nic, index: int):
        self.nic = nic
        self.index = index
        self.cq = CompletionQueue(self)
        self.inject_free_at: int = 0
        self._endpoints: dict = {}
        self.sends_posted = 0
        self.rma_posted = 0
        #: owning process's SPC (set by the MPI layer; ``None`` standalone)
        self.spc = None
        #: permanently dead (fault plan killed this context)
        self.failed = False
        #: surviving context that inherits this one's traffic once dead
        self.failover = None
        #: the interconnect this context's NIC belongs to, and its
        #: scheduler -- both fixed at construction, cached flat for the
        #: per-message fast path
        self.fabric = nic.fabric
        self.sched = nic.fabric.sched
        # constant doorbell cost, one record reused for every post
        self._doorbell_delay = Delay(nic.fabric.params.doorbell_ns)

    def live(self) -> "NetworkContext":
        """This context, or its failover chain's surviving end."""
        ctx = self
        while ctx.failed and ctx.failover is not None:
            ctx = ctx.failover
        return ctx

    # ------------------------------------------------------------------
    def endpoint_to(self, dst_ctx: "NetworkContext"):
        """Get or create the connection from this context to ``dst_ctx``."""
        ep = self._endpoints.get(id(dst_ctx))
        if ep is None:
            ep = Endpoint(self, dst_ctx)
            self._endpoints[id(dst_ctx)] = ep
        return ep

    # ------------------------------------------------------------------
    def post_send(self, endpoint, envelope):
        """Post a two-sided eager send on this context; returns the
        doorbell cost for the caller to yield.

        The caller must hold whatever lock protects this context.  Charges
        only the doorbell; schedules local completion (at injection done)
        and remote delivery (FIFO per connection, jittered across
        connections).
        """
        sched = self.sched
        fabric = self.fabric
        envelope.sent_at = sched._now
        self.sends_posted += 1
        start, done = self.nic.injection_window(self, envelope.wire_bytes)
        faults = fabric.faults
        if faults is not None:
            # Reliable mode: the frame layer schedules delivery/ack/
            # retransmit; local completion is deferred to the ack.
            endpoint.reliable(faults).send_envelope(envelope, done)
        else:
            if envelope.send_request is not None:
                sched.call_at(done, self.cq.push, SendCompletion(envelope.send_request))
            deliver_at = endpoint.fifo_delivery_time(done + fabric.wire_delay())
            sched.call_at(deliver_at, endpoint.dst_ctx.deliver, envelope)
        return self._doorbell_delay

    def deliver(self, envelope) -> None:
        """Delivery callback: the wire handed us a message."""
        target = self.live()
        envelope.arrived_at = target.sched._now
        target.cq.push(RecvArrival(envelope))

    # ------------------------------------------------------------------
    def post_rma(self, endpoint, op):
        """Post a one-sided operation (put/get/atomic); returns the
        doorbell cost for the caller to yield.

        No target CPU involvement: the remote side-effect happens in a
        delivery callback, and the hardware ack completes the op through
        a counter callback (:meth:`_complete_rma`) that never touches a
        CQ.  The caller must hold the context's protection.
        """
        sched = self.sched
        params = self.fabric.params
        self.rma_posted += 1
        op.issued_at = sched._now
        start, done = self.nic.injection_window(self, op.wire_bytes)
        if op.is_get:
            # data travels back: ack latency plus payload serialization
            ack_extra = params.rdma_ack_latency_ns + int(op.nbytes * params.per_byte_ns)
        else:
            ack_extra = params.rdma_ack_latency_ns
        faults = self.fabric.faults
        if faults is not None:
            endpoint.reliable(faults).send_op(op, done, ack_extra)
        else:
            remote_at = done + self.fabric.wire_delay()
            sched.call_at(remote_at, op.apply_remote)
            # RMA acks complete through a hardware counter (uGNI/Verbs
            # style), not through software CQ processing: no progress-
            # engine thread is needed to retire them -- the reason the
            # paper finds "little benefit from concurrent progress" on
            # the one-sided path.
            sched.call_at(remote_at + ack_extra, self._complete_rma, op)
        return self._doorbell_delay

    def _complete_rma(self, op) -> None:
        """Hardware-counter completion callback for a one-sided op."""
        op.mark_completed(self.sched.now)
        notify = getattr(op, "on_completed", None)
        if notify is not None:
            notify()

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<NetworkContext nic={self.nic.nic_id} #{self.index} cq={len(self.cq)}>"
