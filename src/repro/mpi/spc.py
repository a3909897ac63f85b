"""Software-based Performance Counters.

Mirrors the Open MPI SPC infrastructure the paper reads (Eberius et al.,
EuroMPI'17): low-overhead counters exposing MPI-internal information.
The study focuses on two of them -- the number of out-of-sequence messages
and the total matching time -- which we reproduce for Table II, plus the
supporting counters around them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: field tag: a depth high-watermark, merged across processes by max
#: (every other counter is summed)
HIGH_WATERMARK = {"merge": "max"}

#: derived counters (read-only properties of :class:`SPC`) and their docs
DERIVED = {
    "out_of_sequence_fraction":
        "fraction of received messages that arrived out of sequence",
    "match_time_ms": "total matching time in milliseconds",
}

#: lock/progress gauges read from live structures by
#: :meth:`~repro.mpi.process.MpiProcess.obs_counters`, in report order
OBS_GAUGES = {
    "match_lock_wait_ns": "cumulative contended wait on matching locks",
    "match_lock_hold_ns": "cumulative hold time of matching locks",
    "cri_lock_wait_ns": "cumulative contended wait on CRI locks",
    "cri_lock_hold_ns": "cumulative hold time of CRI locks",
    "cri_lock_tryfails": "failed try-lock attempts on CRI locks",
    "progress_calls": "progress-engine invocations",
    "progress_denied": "progress calls denied by a held try-lock",
    "progress_lock_wait_ns": "cumulative wait on the serial progress lock",
}


@dataclass
class SPC:
    """Per-process software performance counters.

    The fields are the one declaration of the SPC family:
    :meth:`as_dict`, :meth:`SPCAggregate.total` and the metrics
    time-series all iterate them.
    """

    messages_sent: int = 0
    messages_received: int = 0
    unexpected_messages: int = 0
    out_of_sequence: int = 0
    #: total virtual time spent in the matching engine (validation, queue
    #: search, delivery, out-of-sequence buffering, structure migration);
    #: :meth:`as_dict` reports it only as the derived ``match_time_ms``.
    match_time_ns: int = field(default=0, metadata={"as_dict": False})
    #: total posted-queue elements a linear scan would have traversed.
    match_queue_scanned: int = 0
    recv_posted: int = 0
    oos_buffered_high_watermark: int = field(default=0,
                                             metadata=HIGH_WATERMARK)
    unexpected_high_watermark: int = field(default=0,
                                           metadata=HIGH_WATERMARK)
    rma_ops: int = 0
    rma_flushes: int = 0
    match_migrations: int = 0
    #: sends routed through the rendezvous (RTS/CTS/DATA) protocol
    rendezvous_sends: int = 0
    #: reliable-transport frames retransmitted after a timeout
    retransmits: int = 0
    #: frames abandoned after the retry budget (error completions)
    transport_exhausted: int = 0
    #: duplicate deliveries discarded (transport dedup + stale sequence)
    duplicates_dropped: int = 0
    #: dedicated-CRI assignments re-run because the instance died
    cri_migrations: int = 0

    def note_oos_depth(self, depth: int) -> None:
        """Track the out-of-sequence buffer's high-watermark depth."""
        if depth > self.oos_buffered_high_watermark:
            self.oos_buffered_high_watermark = depth

    def note_unexpected_depth(self, depth: int) -> None:
        """Track the unexpected-message queue's high-watermark depth."""
        if depth > self.unexpected_high_watermark:
            self.unexpected_high_watermark = depth

    @property
    def out_of_sequence_fraction(self) -> float:
        """Fraction of received messages that arrived out of sequence."""
        if self.messages_received == 0:
            return 0.0
        return self.out_of_sequence / self.messages_received

    @property
    def match_time_ms(self) -> float:
        """Total matching time in milliseconds."""
        return self.match_time_ns / 1e6

    def as_dict(self) -> dict:
        """All counters (plus derived ratios) as a plain dict."""
        out = {name: getattr(self, name) for name in _AS_DICT}
        for name in DERIVED:
            out[name] = getattr(self, name)
        return out


@dataclass
class SPCAggregate:
    """Sum of SPCs across processes (what the experiment tables report)."""

    counters: list = field(default_factory=list)

    def add(self, spc: SPC) -> None:
        """Register one process's SPC for aggregation."""
        self.counters.append(spc)

    def total(self) -> SPC:
        """Element-wise fold of every registered SPC (sum, or max for
        high-watermarks)."""
        out = SPC()
        for name, high_watermark in _MERGE:
            values = [getattr(c, name) for c in self.counters]
            setattr(out, name,
                    max(values, default=0) if high_watermark else sum(values))
        return out


_AS_DICT = tuple(f.name for f in dataclasses.fields(SPC)
                 if f.metadata.get("as_dict", True))
_MERGE = tuple((f.name, f.metadata.get("merge") == "max")
               for f in dataclasses.fields(SPC))
