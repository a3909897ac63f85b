"""Completion queues and the event records they carry.

A completion queue (CQ) is attached to one network context.  The hardware
(the simulation's delivery callbacks) pushes events; the MPI progress
engine drains them under the owning CRI's lock.  The CQ itself is dumb:
costs for polling and handling are charged by the progress engine from the
cost model, because that is where the paper's designs differ.
"""

from __future__ import annotations

from collections import deque


class SendCompletion:
    """Local completion of a two-sided send (eager buffer released)."""

    __slots__ = ("request",)

    def __init__(self, request):
        self.request = request


class RecvArrival:
    """A message arrived on this context and awaits matching."""

    __slots__ = ("envelope",)

    def __init__(self, envelope):
        self.envelope = envelope


class TransportFailure:
    """Error completion: a frame exhausted its retransmission budget.

    Exactly one of ``envelope`` / ``op`` is set (whichever the dead frame
    carried).  The netsim layer cannot name MPI error types, so the event
    carries the raw facts and the MPI dispatcher builds the
    ``TransportError`` (honouring the communicator's error handler).
    """

    __slots__ = ("envelope", "op", "reason")

    def __init__(self, envelope=None, op=None, reason: str = ""):
        self.envelope = envelope
        self.op = op
        self.reason = reason


class CompletionQueue:
    """FIFO of completion events for one network context."""

    __slots__ = ("ctx", "pending", "events_pushed", "events_polled", "high_watermark")

    def __init__(self, ctx):
        self.ctx = ctx
        #: events waiting to be polled, oldest first.  Truthy while any
        #: wait: the progress engines' "anything pending?" test is this
        #: attribute load, not a call.
        self.pending: deque = deque()
        self.events_pushed = 0
        self.events_polled = 0
        self.high_watermark = 0

    def push(self, event) -> None:
        """Enqueue a hardware completion event."""
        events = self.pending
        events.append(event)
        self.events_pushed += 1
        if len(events) > self.high_watermark:
            self.high_watermark = len(events)

    def poll(self, max_events: int | None = None) -> list:
        """Drain up to ``max_events`` events (all if ``None``)."""
        events = self.pending
        if max_events is None or max_events >= len(events):
            # common case: full drain -- one bulk copy, no per-event pops
            out = list(events)
            events.clear()
        else:
            out = [events.popleft() for _ in range(max_events)]
        self.events_polled += len(out)
        return out

    def __len__(self) -> int:
        return len(self.pending)
