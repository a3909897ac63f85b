"""The flight recorder: a postmortem bundle for sweeps that die.

A sweep that exhausts a trial's retry budget, crashes the supervisor,
or catches a SIGTERM or SIGINT should leave more behind than a stack
trace on a lost terminal.  The recorder's memory is the event log's
bounded ring (the most recent records, already in RAM); dumping writes
a ``postmortem/`` directory next to the telemetry files:

* ``postmortem.json`` -- the bundle manifest: reason, run id, host
  time, the final status snapshot, and what the bundle contains;
* ``ring.jsonl`` -- the event ring, oldest first (the last N things
  the engine did, with causality keys intact);
* ``traceback.txt`` -- the formatted exception, when one caused this.

Everything in the bundle is copied from state that already existed --
dumping never recomputes, so it is safe to call from a signal handler
or an exception path.  Dumps are numbered (``postmortem``,
``postmortem.2``, ...) rather than overwritten: a retry-exhaustion
followed by a SIGTERM keeps both records.
"""

from __future__ import annotations

import json
import pathlib
import time
import traceback

#: bump when the bundle layout changes
POSTMORTEM_SCHEMA = 1

#: directory name of the bundle inside a telemetry directory
POSTMORTEM_DIR = "postmortem"


class FlightRecorder:
    """Dumps the in-memory event ring as an on-disk postmortem bundle.

    Construction is free: the recorder only holds references (the event
    log whose ring it will copy and a callable returning the latest
    status snapshot).
    """

    def __init__(self, log, snapshot=None):
        self.log = log
        self.snapshot = snapshot
        self.dumps: list[pathlib.Path] = []

    def dump(self, out_dir, reason: str, exc: BaseException | None = None,
             ) -> pathlib.Path:
        """Write one bundle under ``out_dir``; returns the bundle path.

        ``reason`` is a short machine-readable cause
        (``retry-exhaustion``, ``crash``, ``sigterm``, ``sigint``);
        ``exc`` adds a formatted ``traceback.txt`` when present.
        """
        out_dir = pathlib.Path(out_dir)
        bundle = out_dir / POSTMORTEM_DIR
        n = 2
        while bundle.exists():
            bundle = out_dir / f"{POSTMORTEM_DIR}.{n}"
            n += 1
        bundle.mkdir(parents=True)

        ring = list(self.log.ring)
        (bundle / "ring.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in ring))

        contents = ["postmortem.json", "ring.jsonl"]
        if exc is not None:
            (bundle / "traceback.txt").write_text("".join(
                traceback.format_exception(type(exc), exc,
                                           exc.__traceback__)))
            contents.append("traceback.txt")

        manifest = {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "run": self.log.run_id,
            "ts": round(time.time(), 6),
            "ring_events": len(ring),
            "events_total": self.log.total,
            "contents": sorted(contents),
            "error": repr(exc) if exc is not None else None,
            "status": self.snapshot() if self.snapshot is not None else None,
        }
        (bundle / "postmortem.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.dumps.append(bundle)
        return bundle
