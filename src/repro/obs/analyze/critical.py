"""Critical-path extraction: the dependency chain that ended the run.

Starting from the last-completed message (or, in runs without two-sided
traffic, the span finishing last), the walker emits the chain of
segments that had to happen back-to-back for the run to end when it
did:

* the delivery stages of the final message (queue wait, matching with
  its lock wait split out, wire transfer, sender post with its lock
  wait split out), then
* backwards along the sender's own track: every earlier top-level span
  (previous sends of the window, receive posts, progress calls), with
  send spans decomposed the same way and scheduling gaps reported as
  ``blocked`` segments,

until virtual time zero.  Lock-wait segments carry the holder that was
blocking (taken from the blame attribution), which is how a critical
path through ``wait p1/match-c1`` reads "blocked by progress-3".

Every choice ties off deterministically (latest end first, then
recording index), so the emitted CSV is byte-stable per seed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.obs.analyze.messages import MessageRecord
from repro.obs.analyze.model import Span, TraceModel

#: safety bound on emitted segments (a run's window is far shorter)
MAX_SEGMENTS = 4096


@dataclass(frozen=True)
class Segment:
    """One critical-path interval, attributed to a stage and a track."""

    start_ns: int
    end_ns: int
    kind: str        #: stage: sender/transfer/match/queue-wait/lock-wait/span/blocked
    where: str       #: track label the time was spent on
    what: str        #: span name or stage detail
    detail: str = "" #: e.g. the blocking holder for lock-wait segments

    @property
    def dur_ns(self) -> int:
        """Length of the segment."""
        return self.end_ns - self.start_ns


class _Walker:
    """Backward walker over one model; collects segments newest-first."""

    def __init__(self, model: TraceModel, messages: list[MessageRecord]):
        self.model = model
        self.segments: list[Segment] = []
        self._send_spans = self._index_sends()
        self._by_key = {(m.comm, m.src, m.dst, m.seq): m for m in messages}
        self._waits_by_tid: dict[int, list[Span]] = {}
        for s in model.spans_in_cat("lock-wait"):
            self._waits_by_tid.setdefault(s.tid, []).append(s)
        self._top_level = self._index_top_level()
        self._holds = self._index_holds()

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def _index_sends(self) -> dict[int, Span]:
        return {s.index: s for s in self.model.spans_named("send")}

    def _index_top_level(self) -> dict[int, tuple[list[int], list[Span]]]:
        """Per tid: non-nested spans sorted by start, plus their ends."""
        out = {}
        for tid, spans in self.model.spans_by_tid().items():
            top: list[Span] = []
            open_end = -1
            for s in spans:  # sorted by (start, index)
                if s.start_ns >= open_end:
                    top.append(s)
                    open_end = s.end_ns
                elif s.end_ns > open_end:
                    # overlapping auto-closed tail: treat as top-level
                    top.append(s)
                    open_end = s.end_ns
            out[tid] = ([s.end_ns for s in top], top)
        return out

    def _index_holds(self) -> dict[str, list[Span]]:
        """Lock label -> hold spans (sorted), for wait attribution."""
        out: dict[str, list[Span]] = {}
        spans_by_tid = self.model.spans_by_tid()
        for t in self.model.lock_tracks():
            out.setdefault(t.label, [])
            for s in spans_by_tid.get(t.tid, []):
                if s.cat == "hold":
                    out[t.label].append(s)
        return out

    # ------------------------------------------------------------------
    def _holder_during(self, lock_name: str, start: int, end: int) -> str:
        """The holder blamed for a wait interval (longest overlap wins)."""
        best, best_overlap = "", 0
        holds = self._holds.get(lock_name, [])
        ends = [h.end_ns for h in holds]
        i = bisect.bisect_right(ends, start)
        while i < len(holds) and holds[i].start_ns < end:
            h = holds[i]
            i += 1
            overlap = min(end, h.end_ns) - max(start, h.start_ns)
            if overlap > best_overlap:
                best, best_overlap = h.name, overlap
        return best

    def _emit(self, seg: Segment) -> None:
        if seg.dur_ns > 0:
            self.segments.append(seg)

    def _emit_span_decomposed(self, span: Span, kind: str) -> None:
        """Emit a span newest-first, splitting out nested lock waits."""
        label = self.model.label(span.tid)
        waits = [w for w in self._waits_by_tid.get(span.tid, [])
                 if w.start_ns >= span.start_ns and w.end_ns <= span.end_ns]
        waits.sort(key=lambda w: (w.start_ns, w.index))
        cursor = span.end_ns
        for w in reversed(waits):
            self._emit(Segment(w.end_ns, cursor, kind, label, span.name))
            lock = w.arg("lock", "?")
            holder = self._holder_during(lock, w.start_ns, w.end_ns)
            self._emit(Segment(w.start_ns, w.end_ns, "lock-wait", label,
                               f"wait {lock}", detail=holder))
            cursor = w.start_ns
        self._emit(Segment(span.start_ns, cursor, kind, label, span.name))

    # ------------------------------------------------------------------
    def walk_message(self, rec: MessageRecord, arrival: Span | None) -> int:
        """Emit the delivery chain of one message; returns its post time."""
        if rec.delivered_ns is not None and rec.matched_ns is not None \
                and rec.delivered_ns > rec.matched_ns:
            self._emit(Segment(rec.matched_ns, rec.delivered_ns, "queue-wait",
                               rec.matcher_label,
                               f"msg {rec.src}->{rec.dst} seq {rec.seq}",
                               detail=rec.outcome))
        if arrival is not None:
            self._emit_span_decomposed(arrival, "match")
            self._emit(Segment(rec.injected_ns, arrival.start_ns, "transfer",
                               "wire", f"msg {rec.src}->{rec.dst} seq {rec.seq}"))
        send = self._find_send(rec)
        if send is not None:
            self._emit_span_decomposed(send, "sender")
        return rec.posted_ns

    def _find_send(self, rec: MessageRecord) -> Span | None:
        for s in self._send_spans.values():
            if s.start_ns == rec.posted_ns and s.end_ns == rec.injected_ns \
                    and self.model.label(s.tid) == rec.sender_label:
                return s
        return None

    def _find_arrival(self, rec: MessageRecord) -> Span | None:
        if rec.arrival_ns is None:
            return None
        for s in self.model.spans_named("match.arrival"):
            if s.start_ns == rec.arrival_ns \
                    and self.model.label(s.tid) == rec.matcher_label:
                return s
        return None

    def walk_thread_back(self, tid: int, t: int) -> None:
        """Emit earlier activity on ``tid``'s track back to time zero."""
        ends, top = self._top_level.get(tid, ([], []))
        label = self.model.label(tid)
        while t > 0 and len(self.segments) < MAX_SEGMENTS:
            i = bisect.bisect_right(ends, t) - 1
            if i < 0:
                break
            span = top[i]
            if span.end_ns < t:
                self._emit(Segment(span.end_ns, t, "blocked", label,
                                   "(not scheduled)"))
            key = None
            if span.name == "send":
                key = (span.arg("comm"), span.arg("src"), span.arg("dst"),
                       span.arg("seq"))
            rec = self._by_key.get(key) if key is not None else None
            if rec is not None:
                self._emit_span_decomposed(span, "sender")
            else:
                self._emit_span_decomposed(span, "span")
            t = span.start_ns


def critical_path(model: TraceModel,
                  messages: list[MessageRecord]) -> list[Segment]:
    """The run's critical path, oldest segment first.

    Anchored at the message completing last; runs without reconstructed
    messages (e.g. RMA workloads) anchor at the span finishing last and
    walk its track back instead.
    """
    walker = _Walker(model, messages)
    done = [m for m in messages if m.delivered_ns is not None]
    if done:
        last = max(done, key=lambda m: (m.delivered_ns, m.comm, m.src,
                                        m.dst, m.seq))
        arrival = walker._find_arrival(last)
        post_time = walker.walk_message(last, arrival)
        send = walker._find_send(last)
        if send is not None:
            walker.walk_thread_back(send.tid, post_time)
    else:
        spans = sorted(model.spans, key=lambda s: (s.end_ns, s.index))
        if not spans:
            return []
        anchor = spans[-1]
        walker.walk_thread_back(anchor.tid, anchor.end_ns)
    return list(reversed(walker.segments))


def critical_totals(segments: list[Segment]) -> dict[str, int]:
    """Total ns per segment kind, descending, for the text report."""
    totals: dict[str, int] = {}
    for seg in segments:
        totals[seg.kind] = totals.get(seg.kind, 0) + seg.dur_ns
    return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))
