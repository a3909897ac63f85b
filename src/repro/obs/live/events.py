"""The structured run-event log: ``events.jsonl`` and its schema.

Every supervised sweep narrates itself into an append-only JSONL file:
one record per engine-level event (sweep start/finish, trial dispatch /
complete / cache-hit / shard-skip, retry / timeout, worker death /
respawn, cache quarantine, postmortem).  Records carry three causality
keys -- a monotonic ``seq``, the sweep's ``run`` id, and the trial
fingerprint ``k`` (a sha256 prefix of the task's canonical identity, so
an event can be joined against the trial cache) --
which is what lets ``repro top``, the postmortem bundle and external
scrapers reconstruct *what happened in which order* without any
protocol beyond "read the file".

Determinism discipline: the *contents* of every record are a pure
function of the sweep (seeded faults included) -- only the fields named
in :data:`HOST_FIELDS` (wall-clock timestamp, host pid, host
nanoseconds) vary between same-seed runs, and :func:`canonical_line`
strips exactly those so tests and the schema linter can compare event
streams byte-for-byte.  Under ``--jobs N`` completion *order* is host
scheduling, so cross-run comparisons are per-line-set rather than
per-file; a serial run's file is byte-identical after stripping.

The writer is single-process by design (only the sweep's parent emits;
workers report through their pipes), so appends need no lock: each line
is written and flushed whole, and the reader tolerates a torn final
line (the signature of a crash mid-append).

Readers may also run **while the writer is still appending** -- the
experiment service streams a job's events to SSE subscribers as the
engine emits them.  The concurrent-reader discipline is: only bytes up
to the last newline are records; anything after it is an append in
flight, to be re-read once complete, never parsed.  :func:`read_events`
applies that rule to whole-file loads and :class:`EventTail` is the
incremental (offset-keeping) form for tail-following.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from collections import deque

#: bump when the record layout changes (checked by tools/lint_events.py)
EVENTS_SCHEMA = 1

#: the filename every telemetry directory uses for the event log
EVENTS_NAME = "events.jsonl"

#: every event kind the engine layer emits
EVENT_KINDS = frozenset({
    "sweep.start",        #: one sweep began (experiments, params, jobs)
    "sweep.finish",       #: the sweep ended (ok flag + deterministic counters)
    "trial.dispatch",     #: a trial was handed to a worker (or run inline)
    "trial.complete",     #: a trial's value arrived and was persisted
    "trial.cache_hit",    #: a trial was answered from the trial cache
    "trial.shard_skip",   #: a trial owned by another shard was skipped
    "trial.retry",        #: a failed trial was requeued with backoff
    "trial.timeout",      #: a worker was killed for exceeding the trial budget
    "worker.death",       #: a worker process was found dead mid-trial or idle
    "worker.respawn",     #: a replacement worker was started
    "cache.quarantine",   #: corrupt cache entries were moved to *.bad
    "postmortem",         #: a flight-recorder bundle was dumped
})

#: record fields that legitimately vary between same-seed runs
HOST_FIELDS = frozenset({"ts", "pid", "ns"})

#: newest records kept in memory for the flight recorder
RING_SIZE = 256


def trial_digest(identity: str | None, plan_index: int) -> str:
    """The event log's trial fingerprint for one planned trial.

    A sha256 prefix of the task's canonical identity (the same string
    the cache keys on), so events join against cache entries; tasks
    with uncacheable params get a positional stand-in instead.
    """
    if identity is None:
        return f"opaque:{plan_index}"
    return hashlib.sha256(identity.encode()).hexdigest()[:12]


def canonical_line(record: dict) -> str:
    """One record minus its host-varying fields, as sorted-key JSON.

    This is the byte-comparison form of an event: two same-seed serial
    sweeps produce identical canonical lines in identical order, and
    parallel sweeps produce the same multiset of lines.
    """
    return json.dumps({k: v for k, v in record.items()
                       if k not in HOST_FIELDS}, sort_keys=True)


def complete_lines(text: str) -> list[str]:
    """The newline-terminated lines of ``text``.

    A trailing fragment with no newline is an append in flight (live
    writer) or a torn final line (crash mid-append); either way it is
    not a record yet and must not be parsed -- a fragment like ``{"seq":
    1`` could even parse as valid JSON of the wrong shape.
    """
    end = text.rfind("\n")
    if end < 0:
        return []
    return text[:end].split("\n")


def read_events(path) -> list[dict]:
    """Load every parseable record of an ``events.jsonl`` file.

    Only newline-terminated lines are considered (see
    :func:`complete_lines`), so reading a file mid-append -- torn by a
    crash or simply still being written -- yields exactly the complete
    records.  Unparseable complete lines are skipped too: the event log
    must never make a postmortem worse.
    """
    try:
        text = pathlib.Path(path).read_text()
    except OSError:
        return []
    records = []
    for line in complete_lines(text):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


class EventTail:
    """Incremental reader of a (possibly still-growing) ``events.jsonl``.

    Keeps a byte offset and, on each :meth:`poll`, consumes only the
    *complete* lines appended since last time -- a partially flushed
    line stays in the file until its newline arrives, so a concurrent
    writer can never make the tail yield a torn record.  The file may
    not exist yet when the tail is constructed (the subscriber can
    attach before the job's first event); polls simply return nothing
    until it appears.

    ``min_seq`` filters the yielded records (SSE replay-from-seq: a
    reconnecting client passes the last ``seq`` it saw + 1).
    """

    def __init__(self, path, min_seq: int = 0):
        self.path = pathlib.Path(path)
        self.min_seq = min_seq
        self.offset = 0

    def poll(self) -> list[tuple[dict, bytes]]:
        """Each complete record appended since the previous poll.

        Returns ``(record, line)`` pairs: the line is the record's
        bytes exactly as :meth:`RunEventLog.emit` wrote them (sorted-key
        JSON, no newline), so a caller can forward it without
        re-encoding.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except OSError:
            return []
        end = chunk.rfind(b"\n")
        if end < 0:
            return []
        self.offset += end + 1
        batch = []
        for line in chunk[:end].split(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and \
                    record.get("seq", 0) >= self.min_seq:
                batch.append((record, line))
        return batch

    def follow(self, done, poll_s: float = 0.05, timeout_s: float = 60.0):
        """Yield one :meth:`poll` batch per poll until drained.

        Empty batches are skipped.  ``done()`` is read *before* each
        poll, so the poll after it first reads true is the final drain
        and records emitted just before completion are never lost;
        ``timeout_s`` bounds the total wait when the writer never
        finishes.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            finished = done()
            batch = self.poll()
            if batch:
                yield batch
            if finished or time.monotonic() >= deadline:
                return
            time.sleep(poll_s)


class RunEventLog:
    """Append-only writer for one sweep's ``events.jsonl``.

    Keeps three live views alongside the file: the monotonic ``seq``
    counter, per-kind tallies (``counts`` -- the manifest's telemetry
    summary and the heartbeat's ``events`` block), and a ring of the
    newest :data:`RING_SIZE` records (the flight recorder's memory).
    All three are bumped only after a line is written, so they always
    describe the file.  The file handle stays open between appends and
    every line is flushed whole, so a ``kill -9`` loses at most the
    in-flight line.

    Opening truncates any previous log: one file holds exactly one
    session's stream (``seq`` contiguous from 0), so rerunning into the
    same ``--out`` -- the normal way to finish an interrupted sweep --
    starts fresh instead of interleaving two runs.  The durable history
    lives in the trial cache; the event log is this run's narration.
    """

    def __init__(self, path, run_id: str):
        self.path = pathlib.Path(path)
        self.run_id = run_id
        self.seq = 0
        self.counts: dict[str, int] = {}
        self.ring: deque = deque(maxlen=RING_SIZE)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")

    def emit(self, kind: str, **fields) -> dict:
        """Append one event record; returns the record as written.

        ``fields`` must be JSON-able; deterministic fields go at the
        top level, host-varying ones only under the :data:`HOST_FIELDS`
        names.  The wall-clock ``ts`` is stamped here.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r} "
                             f"(known: {', '.join(sorted(EVENT_KINDS))})")
        record = {"schema": EVENTS_SCHEMA, "seq": self.seq,
                  "run": self.run_id, "kind": kind,
                  "ts": round(time.time(), 6), **fields}
        # Write before counting: a failed write (say, on a closed log)
        # must leave seq, counts and the ring equal to the file.
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.seq += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.ring.append(record)
        return record

    @property
    def total(self) -> int:
        """How many events have been emitted so far."""
        return self.seq

    def close(self) -> None:
        """Flush and close the underlying file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()
