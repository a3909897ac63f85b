"""Normalized trace model: the analyzer's input form.

The analyzer accepts either a live :class:`~repro.obs.tracer.Tracer`
(straight after a run) or a Chrome trace-event JSON file written by
:mod:`repro.obs.export` -- the "no re-run needed" path.  Both are
normalized into one :class:`TraceModel`: integer-nanosecond spans and
instants grouped by track, with the track metadata (kind, label)
preserved.

Loading from JSON inverts the exporter's transformations: microsecond
timestamps are rounded back to the exact nanosecond (the export divides
by 1000, so the round trip is lossless for any virtual time below
~2^53 fs), and the per-kind process ids are mapped back to track kinds.

``validate_events`` is the well-formedness checker the trace-schema
tests run against seeded exports: known phases, integer ids, per-track
monotonic timestamps and balanced B/E spans.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.obs.export import closed_spans
from repro.obs.tracer import TRACK_PIDS

#: Chrome trace-event phases the exporter may emit (M = metadata,
#: X = complete span, B/E = begin/end span, i = instant, C = counter).
KNOWN_PHASES = frozenset({"M", "X", "B", "E", "i", "C"})

#: export pid -> track kind (inverse of the exporter's grouping)
KIND_BY_PID = {pid: kind for kind, pid in TRACK_PIDS.items()}


@dataclass(frozen=True)
class Span:
    """One closed span: ``[start_ns, start_ns + dur_ns)`` on a track."""

    tid: int
    name: str
    cat: str
    start_ns: int
    dur_ns: int
    args: dict | None
    #: recording order; the deterministic tie-breaker everywhere
    index: int

    @property
    def end_ns(self) -> int:
        """Exclusive end timestamp of the span."""
        return self.start_ns + self.dur_ns

    def arg(self, key: str, default=None):
        """One args entry, tolerating a missing args dict."""
        return (self.args or {}).get(key, default)


@dataclass(frozen=True)
class Instant:
    """One zero-duration marker on a track."""

    tid: int
    name: str
    cat: str
    ts_ns: int
    args: dict | None
    index: int


@dataclass(frozen=True)
class Track:
    """One trace row: stable tid plus the exporter's kind/label pair."""

    tid: int
    kind: str
    label: str


@dataclass
class TraceModel:
    """All events of one run, normalized to integer virtual nanoseconds."""

    tracks: list[Track] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    instants: list[Instant] = field(default_factory=list)
    virtual_time_ns: int = 0

    def __post_init__(self):
        self._by_tid: dict[int, Track] = {t.tid: t for t in self.tracks}
        self._spans_by_tid: dict[int, list[Span]] | None = None

    def track(self, tid: int) -> Track:
        """The track carrying ``tid`` (a placeholder if unknown)."""
        t = self._by_tid.get(tid)
        if t is None:
            t = Track(tid, "thread", f"track-{tid}")
        return t

    def label(self, tid: int) -> str:
        """The display label of one track."""
        return self.track(tid).label

    def spans_by_tid(self) -> dict[int, list[Span]]:
        """Spans grouped per track, ordered by (start, index); cached."""
        if self._spans_by_tid is None:
            grouped: dict[int, list[Span]] = {}
            for s in sorted(self.spans, key=lambda s: (s.start_ns, s.index)):
                grouped.setdefault(s.tid, []).append(s)
            self._spans_by_tid = grouped
        return self._spans_by_tid

    def spans_named(self, name: str) -> list[Span]:
        """All spans called ``name``, in recording order."""
        return [s for s in self.spans if s.name == name]

    def spans_in_cat(self, cat: str) -> list[Span]:
        """All spans in category ``cat``, in recording order."""
        return [s for s in self.spans if s.cat == cat]

    def lock_tracks(self) -> list[Track]:
        """Tracks of shared mutexes (plain locks and CRI locks)."""
        return [t for t in self.tracks if t.kind in ("lock", "cri")]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def from_tracer(tracer) -> TraceModel:
    """Normalize a live tracer (open spans auto-close at the final time,
    by :func:`repro.obs.export.closed_spans`)."""
    tracks = [Track(t.tid, t.kind, t.label) for t in tracer.tracks()]
    spans = [Span(*span, i) for i, span in enumerate(closed_spans(tracer))]
    instants = [Instant(tid, name, cat, ts, args, i)
                for i, (tid, name, cat, ts, args) in enumerate(tracer.instants)]
    return TraceModel(tracks=tracks, spans=spans, instants=instants,
                      virtual_time_ns=tracer.sched.now)


def _ns(us: float) -> int:
    """Microseconds (the export unit) back to exact nanoseconds."""
    return round(us * 1000)


def from_chrome_doc(doc: dict) -> TraceModel:
    """Normalize a parsed Chrome trace-event document."""
    tracks: list[Track] = []
    spans: list[Span] = []
    instants: list[Instant] = []
    open_stacks: dict[int, list] = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        tid = ev.get("tid", 0)
        if ph == "M":
            if ev.get("name") == "thread_name":
                kind = KIND_BY_PID.get(ev.get("pid"), "thread")
                tracks.append(Track(tid, kind, ev["args"]["name"]))
            continue
        if ph == "X":
            spans.append(Span(tid, ev["name"], ev.get("cat", ""),
                              _ns(ev["ts"]), _ns(ev.get("dur", 0)),
                              ev.get("args"), len(spans)))
        elif ph == "B":
            open_stacks.setdefault(tid, []).append(ev)
        elif ph == "E":
            b = open_stacks[tid].pop()
            spans.append(Span(tid, b["name"], b.get("cat", ""), _ns(b["ts"]),
                              _ns(ev["ts"]) - _ns(b["ts"]),
                              {**(b.get("args") or {}), **(ev.get("args") or {})}
                              or None, len(spans)))
        elif ph == "i":
            instants.append(Instant(tid, ev["name"], ev.get("cat", ""),
                                    _ns(ev["ts"]), ev.get("args"),
                                    len(instants)))
        # counters ("C") carry no latency information; the analyzer
        # ignores them.
    virtual = doc.get("otherData", {}).get("virtual_time_ns")
    if virtual is None:
        virtual = max((s.end_ns for s in spans), default=0)
    # The export orders events by timestamp, losing the recorder's close
    # order; re-sorting by (start, index) keeps downstream iteration
    # deterministic either way.
    return TraceModel(tracks=tracks, spans=spans, instants=instants,
                      virtual_time_ns=virtual)


def load_trace(path) -> TraceModel:
    """Load an exported ``trace.json`` into the normalized model."""
    doc = json.loads(pathlib.Path(path).read_text())
    return from_chrome_doc(doc)


# ----------------------------------------------------------------------
# well-formedness checker (the trace-schema tests)
# ----------------------------------------------------------------------
def validate_events(events: list[dict]) -> list[str]:
    """Schema findings for a ``traceEvents`` list (empty = well-formed).

    Checks every event for a known ``ph``, integer ``pid``/``tid``, a
    non-negative timestamp, per-track monotonic timestamps, and balanced
    B/E span nesting per track.
    """
    findings: list[str] = []
    last_ts: dict[tuple, float] = {}
    open_depth: dict[tuple, int] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            findings.append(f"event {i}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                findings.append(f"event {i}: {key} is not an integer "
                                f"({ev.get(key)!r})")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            findings.append(f"event {i}: bad timestamp {ts!r}")
            continue
        track = (ev.get("pid"), ev.get("tid"))
        if ts < last_ts.get(track, 0):
            findings.append(f"event {i}: timestamp {ts} goes backwards on "
                            f"track {track}")
        last_ts[track] = ts
        if ph == "X" and ev.get("dur", 0) < 0:
            findings.append(f"event {i}: negative duration {ev.get('dur')}")
        elif ph == "B":
            open_depth[track] = open_depth.get(track, 0) + 1
        elif ph == "E":
            depth = open_depth.get(track, 0)
            if depth == 0:
                findings.append(f"event {i}: E without matching B on "
                                f"track {track}")
            else:
                open_depth[track] = depth - 1
    for track, depth in sorted(open_depth.items()):
        if depth:
            findings.append(f"track {track}: {depth} unbalanced B span(s)")
    return findings
