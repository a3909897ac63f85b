"""Trace exporters: Chrome trace-event JSON and a plain-text report.

The JSON artifact follows the Chrome trace-event format (the
``traceEvents`` array of ``"ph"``-tagged dicts) and loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Timestamps
are microseconds per the format; virtual nanoseconds divide exactly into
fixed decimals, so exports are byte-identical across same-seed runs.

``top_report`` renders the aggregate view the paper's tables are made
of: cumulative time per span kind and per lock (held/wait), top-N.
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.tracer import Tracer


def _us(ns: int) -> float:
    """Nanoseconds to the format's microsecond unit (exact, deterministic)."""
    return ns / 1000.0


def trace_events(tracer: Tracer) -> list[dict]:
    """The ``traceEvents`` list: metadata, spans, instants, counters."""
    events: list[dict] = []
    pids_seen = {}
    for track in tracer.tracks():
        if track.pid not in pids_seen:
            pids_seen[track.pid] = track.kind
            label = {"thread": "sim threads", "lock": "locks",
                     "cri": "CRIs", "queue": "queues"}.get(track.kind, track.kind)
            events.append({"ph": "M", "name": "process_name", "pid": track.pid,
                           "tid": 0, "args": {"name": label}})
        events.append({"ph": "M", "name": "thread_name", "pid": track.pid,
                       "tid": track.tid, "args": {"name": track.label}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": track.pid,
                       "tid": track.tid, "args": {"sort_index": track.tid}})

    by_tid = {t.tid: t for t in tracer.tracks()}

    def pid_of(tid: int) -> int:
        return by_tid[tid].pid

    timed: list[tuple] = []
    for tid, name, cat, start, dur, args in closed_spans(tracer):
        ev = {"ph": "X", "name": name, "cat": cat or "span",
              "pid": pid_of(tid), "tid": tid, "ts": _us(start), "dur": _us(dur)}
        if args:
            ev["args"] = args
        timed.append((start, len(timed), ev))
    for tid, name, cat, ts, args in tracer.instants:
        ev = {"ph": "i", "name": name, "cat": cat or "instant", "s": "t",
              "pid": pid_of(tid), "tid": tid, "ts": _us(ts)}
        if args:
            ev["args"] = args
        timed.append((ts, len(timed), ev))
    for tid, ts, series in tracer.counters:
        timed.append((ts, len(timed),
                      {"ph": "C", "name": by_tid[tid].label, "pid": pid_of(tid),
                       "tid": tid, "ts": _us(ts), "args": dict(series)}))
    timed.sort(key=lambda item: (item[0], item[1]))
    events.extend(ev for _, _, ev in timed)
    return events


def closed_spans(tracer: Tracer) -> list[tuple]:
    """All spans, auto-closing any still open at the final virtual time.

    Each is a ``(tid, name, cat, start, dur, args)`` tuple; a span that
    never closed ends at the scheduler's final time and carries
    ``auto_closed: True`` in its args.  The exporter, the text report
    and the analyzer's :func:`~repro.obs.analyze.model.from_tracer` all
    read spans through this one rule.
    """
    spans = list(tracer.spans)
    now = tracer.sched.now
    for tid, stack in tracer.open_spans().items():
        for name, cat, start, args in stack:
            spans.append((tid, name, cat, start, now - start,
                          {**(args or {}), "auto_closed": True}))
    return spans


def to_chrome_json(tracer: Tracer) -> str:
    """Serialize the trace; stable key order for byte-identical output."""
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "virtual_time_ns": tracer.sched.now,
            "events_processed": tracer.sched.events_processed,
        },
        "traceEvents": trace_events(tracer),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_trace(tracer: Tracer, path) -> pathlib.Path:
    """Write the Chrome JSON next to the exhibits; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_chrome_json(tracer))
    return path


# ----------------------------------------------------------------------
# text report
# ----------------------------------------------------------------------
def span_totals(tracer: Tracer, cat: str | None = None) -> dict[str, dict]:
    """Aggregate spans by name: count / total / mean duration (ns).

    Lock-holder spans carry the holder's name, so they are folded into a
    per-lock ``held:<lock>`` bucket instead; wait spans already encode
    the lock in their name (``wait <lock>``).
    """
    totals: dict[str, dict] = {}
    tracks = {t.tid: t for t in tracer.tracks()}
    for tid, name, scat, _start, dur, _args in closed_spans(tracer):
        if cat is not None and scat != cat:
            continue
        if scat == "hold":
            name = f"held:{tracks[tid].label}"
        bucket = totals.setdefault(name, {"count": 0, "total_ns": 0})
        bucket["count"] += 1
        bucket["total_ns"] += dur
    for bucket in totals.values():
        bucket["mean_ns"] = bucket["total_ns"] / bucket["count"]
    return totals


def lock_wait_totals(tracer: Tracer) -> dict[str, int]:
    """Cumulative contended wait time (ns) per lock name.

    This is the quantity behind the paper's Table II story: under
    concurrent progress the matching lock's wait time explodes relative
    to serial progress.
    """
    out: dict[str, int] = {}
    for _tid, _name, cat, _start, dur, args in closed_spans(tracer):
        if cat != "lock-wait":
            continue
        lock = (args or {}).get("lock", "?")
        out[lock] = out.get(lock, 0) + dur
    return out


def top_report(tracer: Tracer, n: int = 12) -> str:
    """Plain-text top-N: where virtual time went, by span and by lock."""
    lines = [f"trace report: {tracer.sched.now} ns virtual, "
             f"{len(tracer.spans)} spans, {len(tracer.instants)} instants"]
    totals = sorted(span_totals(tracer).items(),
                    key=lambda kv: (-kv[1]["total_ns"], kv[0]))
    lines.append(f"{'span':<32} {'count':>8} {'total_ms':>10} {'mean_us':>9}")
    for name, b in totals[:n]:
        lines.append(f"{name:<32} {b['count']:>8} {b['total_ns'] / 1e6:>10.3f} "
                     f"{b['mean_ns'] / 1e3:>9.2f}")
    waits = sorted(lock_wait_totals(tracer).items(),
                   key=lambda kv: (-kv[1], kv[0]))
    if waits:
        lines.append("")
        lines.append(f"{'lock (contended wait)':<32} {'total_ms':>10}")
        for name, total in waits[:n]:
            lines.append(f"{name:<32} {total / 1e6:>10.3f}")
    return "\n".join(lines)
