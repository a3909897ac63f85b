"""Reliable transport: frames, acks, retransmission, fault injection.

Only built when a :class:`~repro.faults.plan.FaultPlan` is attached to
the fabric.  Each :class:`~repro.netsim.endpoint.Endpoint` then carries a
:class:`ReliableLink` that wraps every posted message or RMA descriptor
in a :class:`Frame`:

* the **data copy** is subjected to the plan's per-frame fates (drop /
  duplicate / corrupt / delay-spike, plus degradation windows) before the
  delivery callback is scheduled;
* the **receiver** dedups by transport sequence number (retransmissions
  that raced their ack are re-acked and discarded) and acks every intact
  copy; corrupted copies are discarded without an ack, exactly like a
  checksum failure;
* the **sender** arms a virtual-time retransmit timer per transmission
  with exponential backoff and seeded jitter; local completion
  (``SendCompletion`` / the RMA hardware counter) is deferred to ack
  arrival, and an exhausted retry budget surfaces as a
  :class:`~repro.netsim.cq.TransportFailure` *error completion* in the
  sender's CQ.

All fault decisions draw from the injector's private RNG (seeded by the
plan), never the scheduler's stream.  Timer events left behind by an
early ack fire as no-ops; they can trail the last useful event by at
most one backed-off timeout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from repro.netsim.cq import SendCompletion, TransportFailure

#: per-frame fates decided by the injector
DELIVER = "deliver"
DROP = "drop"
DUP = "dup"
CORRUPT = "corrupt"


@dataclass
class TransportStats:
    """Injector-wide tallies (also exported on workload results)."""

    frames: int = 0
    acks: int = 0
    drops: int = 0
    dups: int = 0
    corrupts: int = 0
    spikes: int = 0
    ack_drops: int = 0
    retransmits: int = 0
    duplicates_dropped: int = 0
    exhausted: int = 0
    context_kills: int = 0
    #: frames awaiting an ack right now: a gauge, not a tally
    in_flight: int = field(default=0, metadata={"gauge": True})

    def as_dict(self) -> dict:
        """The fault-injection tallies as a plain dict (gauges excluded)."""
        return {name: getattr(self, name) for name in _TALLIES}


_TALLIES = tuple(f.name for f in fields(TransportStats)
                 if not f.metadata.get("gauge"))


class FaultInjector:
    """Draws every fault decision for one fabric from the plan's RNG."""

    def __init__(self, fabric, plan):
        self.fabric = fabric
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = TransportStats()

    # ------------------------------------------------------------------
    def data_fate(self, now: int) -> tuple[str, int]:
        """Fate of one data transmission: ``(fate, extra_delay_ns)``.

        One uniform draw selects among the exclusive per-frame outcomes;
        active degradation windows scale the drop probability and add
        their extra delay to whatever is delivered.
        """
        plan = self.plan
        drop = plan.drop_rate
        extra = 0
        for w in plan.degrade_windows:
            if w.covers(now):
                drop = min(1.0, drop * w.drop_factor)
                extra += w.extra_delay_ns
        r = self.rng.random()
        if r < drop:
            self.stats.drops += 1
            return DROP, extra
        r -= drop
        if r < plan.dup_rate:
            self.stats.dups += 1
            return DUP, extra
        r -= plan.dup_rate
        if r < plan.corrupt_rate:
            self.stats.corrupts += 1
            return CORRUPT, extra
        r -= plan.corrupt_rate
        if r < plan.delay_spike_rate:
            self.stats.spikes += 1
            return DELIVER, extra + plan.delay_spike_ns
        return DELIVER, extra

    def ack_dropped(self) -> bool:
        """Draw whether this ACK is lost on the return path."""
        rate = self.plan.ack_drop_rate
        if rate and self.rng.random() < rate:
            self.stats.ack_drops += 1
            return True
        return False

    def timeout_jitter(self) -> int:
        """Random jitter added to each retransmission timeout."""
        jitter = self.plan.retransmit.jitter_ns
        return self.rng.randrange(jitter) if jitter else 0

    # ------------------------------------------------------------------
    def fault_track(self, trc) -> int:
        """The shared "faults" resource track in the trace."""
        return trc.resource_track("fault", "faults", key=id(self))

    def trace_instant(self, name: str, args=None) -> None:
        """Emit an instant event on the fault track (if tracing is on)."""
        trc = self.fabric.sched.tracer
        if trc.enabled:
            trc.instant(self.fault_track(trc), name, "fault", args)


class Frame:
    """One reliably-delivered unit: an envelope or an RMA descriptor."""

    __slots__ = ("link", "seq", "envelope", "op", "wire_bytes", "ack_delay_ns",
                 "attempts", "acked", "exhausted", "first_sent_at")

    def __init__(self, link, seq: int, envelope=None, op=None,
                 wire_bytes: int = 0, ack_delay_ns: int = 0):
        self.link = link
        self.seq = seq
        self.envelope = envelope
        self.op = op
        self.wire_bytes = wire_bytes
        #: known extra latency of the ack (RMA hardware ack + get payload
        #: serialization); 0 means "one wire traversal", the two-sided case
        self.ack_delay_ns = ack_delay_ns
        self.attempts = 0
        self.acked = False
        self.exhausted = False
        self.first_sent_at: int | None = None

    def __repr__(self):  # pragma: no cover - debug aid
        what = self.envelope if self.envelope is not None else self.op
        state = "acked" if self.acked else ("dead" if self.exhausted else "inflight")
        return f"<Frame #{self.seq} {state} attempts={self.attempts} {what!r}>"


class ReliableLink:
    """Ack/retransmit state of one unidirectional endpoint."""

    __slots__ = ("endpoint", "injector", "policy", "_next_seq", "_delivered",
                 "_sched", "_fabric")

    def __init__(self, endpoint, injector: FaultInjector):
        self.endpoint = endpoint
        self.injector = injector
        self.policy = injector.plan.retransmit
        self._next_seq = 0
        self._delivered: set[int] = set()
        # fixed at construction; cached flat for the per-frame callbacks
        self._sched = endpoint.src_ctx.sched
        self._fabric = endpoint.src_ctx.fabric

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send_envelope(self, envelope, ready_at: int) -> Frame:
        """Wrap one two-sided envelope; local completion waits for the ack."""
        return self._send(Frame(self, self._next_seq, envelope=envelope,
                                wire_bytes=envelope.wire_bytes), ready_at)

    def send_op(self, op, ready_at: int, ack_delay_ns: int) -> Frame:
        """Wrap one RMA descriptor; the hardware counter fires at ack time."""
        return self._send(Frame(self, self._next_seq, op=op,
                                wire_bytes=op.wire_bytes,
                                ack_delay_ns=ack_delay_ns), ready_at)

    def _send(self, frame: Frame, ready_at: int) -> Frame:
        self._next_seq += 1
        frame.first_sent_at = ready_at
        self.injector.stats.frames += 1
        self.injector.stats.in_flight += 1
        self._transmit(frame, ready_at)
        return frame

    def _transmit(self, frame: Frame, at: int) -> None:
        """Schedule one (re)transmission of ``frame`` starting at ``at``."""
        frame.attempts += 1
        sched = self._sched
        fabric = self._fabric
        fate, extra = self.injector.data_fate(at)
        base = at + fabric.wire_delay()
        if frame.envelope is not None and frame.attempts == 1:
            # Only the first copy holds its slot in the per-connection
            # FIFO; retransmissions and duplicates are selective repeat.
            base = self.endpoint.fifo_delivery_time(base)
        deliver_at = base + extra
        if fate == DROP:
            self.injector.trace_instant("drop", {"seq": frame.seq,
                                                 "attempt": frame.attempts})
        elif fate == CORRUPT:
            sched.call_at(deliver_at, self._deliver, frame, True)
        else:
            sched.call_at(deliver_at, self._deliver, frame, False)
            if fate == DUP:
                sched.call_at(deliver_at + fabric.wire_delay(),
                              self._deliver, frame, False)
        timeout_at = (at + frame.ack_delay_ns
                      + self.policy.timeout_for(frame.attempts)
                      + self.injector.timeout_jitter())
        sched.call_at(timeout_at, self._on_timeout, frame)

    def _on_timeout(self, frame: Frame) -> None:
        if frame.acked or frame.exhausted:
            return
        if frame.attempts > self.policy.max_retries:
            frame.exhausted = True
            stats = self.injector.stats
            stats.exhausted += 1
            stats.in_flight -= 1
            src = self.endpoint.src_ctx.live()
            if src.spc is not None:
                src.spc.transport_exhausted += 1
            self.injector.trace_instant("exhausted", {"seq": frame.seq,
                                                      "attempts": frame.attempts})
            src.cq.push(TransportFailure(
                frame.envelope, frame.op,
                f"retry budget exhausted after {frame.attempts} transmissions"))
            return
        self.injector.stats.retransmits += 1
        src = self.endpoint.src_ctx.live()
        if src.spc is not None:
            src.spc.retransmits += 1
        self.injector.trace_instant("retransmit", {"seq": frame.seq,
                                                   "attempt": frame.attempts + 1})
        self._transmit(frame, self._sched.now)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def _deliver(self, frame: Frame, corrupted: bool) -> None:
        if frame.exhausted:
            return  # the sender already gave up on this frame
        if corrupted:
            # Checksum failure: discard silently; the sender's timer recovers.
            self.injector.trace_instant("corrupt", {"seq": frame.seq})
            return
        if frame.seq in self._delivered:
            # Retransmission raced its ack (or a duplicated copy): the
            # payload already went up; just re-ack so the sender stops.
            stats = self.injector.stats
            stats.duplicates_dropped += 1
            dst = self.endpoint.dst_ctx.live()
            if dst.spc is not None:
                dst.spc.duplicates_dropped += 1
            self._send_ack(frame)
            return
        self._delivered.add(frame.seq)
        if frame.envelope is not None:
            self.endpoint.dst_ctx.deliver(frame.envelope)
        else:
            frame.op.apply_remote()
        self._send_ack(frame)

    def _send_ack(self, frame: Frame) -> None:
        if self.injector.ack_dropped():
            self.injector.trace_instant("ack-drop", {"seq": frame.seq})
            return
        delay = frame.ack_delay_ns if frame.ack_delay_ns else self._fabric.wire_delay()
        self._sched.call_at(self._sched.now + delay, self._on_ack, frame)

    # ------------------------------------------------------------------
    # ack arrival (back at the sender)
    # ------------------------------------------------------------------
    def _on_ack(self, frame: Frame) -> None:
        if frame.acked or frame.exhausted:
            return
        frame.acked = True
        stats = self.injector.stats
        stats.acks += 1
        stats.in_flight -= 1
        src = self.endpoint.src_ctx.live()
        if frame.op is not None:
            src._complete_rma(frame.op)
        elif frame.envelope.send_request is not None:
            src.cq.push(SendCompletion(frame.envelope.send_request))
