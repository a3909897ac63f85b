"""Server-Sent Events framing over the live run-event log.

``GET /experiments/<id>/events`` streams a job's telemetry as
``text/event-stream``: one SSE frame per ``events.jsonl`` record, with
the record's monotonic ``seq`` as the SSE ``id`` -- which is what makes
**replay-from-seq** work: a client reconnecting with
``Last-Event-ID: N`` (or ``?from=N+1``) receives exactly the records
it has not seen, in order, because the log is append-only and ``seq``
is contiguous from 0.

The stream reads *while the engine is still writing* via
:class:`~repro.obs.live.events.EventTail` (complete-lines-only
discipline -- a torn append is never framed), follows until the job
reaches a terminal state, drains the file one final time, and closes
with an ``event: end`` frame carrying the final job state so clients
need not poll the status endpoint afterwards.  Each frame carries the
record's line as the event log wrote it (the bytes
:func:`format_event` would re-encode), and each poll's frames go out
as one chunk, the last one with the ``end`` frame appended.
"""

from __future__ import annotations

import json

from repro.obs.live.events import EVENTS_NAME, EventTail


def format_event(record: dict) -> bytes:
    """One telemetry record as an SSE frame (``id`` = its ``seq``)."""
    payload = json.dumps(record, sort_keys=True)
    seq = record.get("seq")
    head = f"id: {seq}\n" if isinstance(seq, int) else ""
    return (f"{head}data: {payload}\n\n").encode()


def end_frame(state: str) -> bytes:
    """The terminal frame: ``event: end`` with the job's final state."""
    return (f"event: end\ndata: {json.dumps({'state': state})}\n\n").encode()


def _frame(record: dict, line: bytes) -> bytes:
    """:func:`format_event` of ``record``, reusing its logged ``line``."""
    seq = record.get("seq")
    head = f"id: {seq}\n".encode() if isinstance(seq, int) else b""
    return head + b"data: " + line + b"\n\n"


def job_event_stream(job, from_seq: int = 0, poll_s: float = 0.05,
                     timeout_s: float = 300.0):
    """Yield SSE bytes for one job's event log, one chunk per poll.

    ``from_seq`` is the first ``seq`` to deliver; records below it are
    replayed-over silently.  The stream ends with an ``end`` frame once
    the job is finished and the log is drained, or when ``timeout_s``
    elapses -- a stream must never outlive a wedged writer forever.
    """
    tail = EventTail(job.telemetry_dir / EVENTS_NAME, min_seq=from_seq)
    finished = False

    def done() -> bool:
        nonlocal finished
        finished = job.finished
        return finished

    # follow() reads done() just before each poll, so a batch that
    # arrives with ``finished`` set is the final drain
    for batch in tail.follow(done, poll_s=poll_s, timeout_s=timeout_s):
        chunk = b"".join(_frame(record, line) for record, line in batch)
        if finished:
            yield chunk + end_frame(job.state)
            return
        yield chunk
    yield end_frame(job.state)


def parse_sse(lines):
    """Parse an SSE byte-line stream into ``(event, id, data)`` tuples.

    The client-side inverse of :func:`format_event`: feed it the
    response's line iterator and it yields one tuple per frame --
    ``event`` defaults to ``"message"``, ``id`` is the integer SSE id
    (or None), ``data`` the decoded JSON document (or the raw string
    when not JSON).  Used by :class:`repro.serve.client.ServeClient`
    and the test suites; kept dependency-free like everything else.
    """
    event, event_id, data_lines = "message", None, []
    for raw in lines:
        line = raw.decode() if isinstance(raw, bytes) else raw
        line = line.rstrip("\r\n")
        if line == "":
            if data_lines:
                text = "\n".join(data_lines)
                try:
                    data = json.loads(text)
                except ValueError:
                    data = text
                yield event, event_id, data
            event, event_id, data_lines = "message", None, []
            continue
        if line.startswith(":"):
            continue            # SSE comment / keepalive
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "event":
            event = value
        elif field == "id":
            try:
                event_id = int(value)
            except ValueError:
                event_id = None
        elif field == "data":
            data_lines.append(value)
