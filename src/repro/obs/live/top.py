"""``repro top``: a zero-dependency live monitor for a running sweep.

The monitor is a *reader* -- it opens nothing but the telemetry files
the sweep's own process rewrites (``status.json`` atomically, so a poll
never sees a torn document) and paints a terminal dashboard from them:
a progress bar with ETA, the per-worker table, the retry/chaos counter
row, and the most recent events.  Because reading shares no state with
the sweep, ``repro top`` can attach before the run starts, survive the
run dying under it (it reports the last heartbeat and its age), and run
over the same directory from several terminals at once.

Rendering is plain ANSI (cursor-home + clear-to-end), stdlib only; the
``--once`` mode prints a single frame and exits (CI-friendly), and
``--json`` dumps the raw heartbeat document for scripting instead of
drawing anything.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.obs.live.events import EVENTS_NAME
from repro.obs.live.status import STATUS_NAME, load_status

#: seconds after which a "running" heartbeat is flagged as stale
STALE_AFTER_S = 10.0

#: width of the progress bar, in cells
BAR_WIDTH = 40

_CLEAR = "\x1b[H\x1b[J"


def resolve_dir(path) -> pathlib.Path:
    """Find the telemetry directory for a user-supplied path.

    Accepts the telemetry directory itself or any parent that contains
    one (``<out>``, whose ``telemetry/`` subdirectory the run command
    creates), so ``repro top results/sweep`` just works.
    """
    path = pathlib.Path(path)
    if (path / STATUS_NAME).exists() or (path / EVENTS_NAME).exists():
        return path
    nested = path / "telemetry"
    if (nested / STATUS_NAME).exists() or (nested / EVENTS_NAME).exists():
        return nested
    return path


def fmt_eta(eta_s) -> str:
    """Human form of an ETA in seconds (``--`` when unknown)."""
    if eta_s is None:
        return "--"
    eta_s = max(0.0, float(eta_s))
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.1f}s"


def progress_bar(done: int, planned: int, width: int = BAR_WIDTH) -> str:
    """A textual progress bar, full-width when the plan is empty."""
    if planned <= 0:
        return "[" + "-" * width + "]"
    filled = int(width * min(1.0, done / planned))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_frame(doc: dict | None, now: float | None = None) -> str:
    """One full-screen frame for a heartbeat document.

    Pure text-in/text-out (no terminal I/O), which is what the tests
    and ``--once`` exercise.  ``doc`` may be None (no heartbeat yet).
    """
    if doc is None:
        return "repro top: waiting for status.json ...\n"
    now = time.time() if now is None else now
    age = max(0.0, now - float(doc.get("ts", now)))
    state = doc.get("state", "?")
    stale = state == "running" and age > STALE_AFTER_S
    progress = doc.get("progress", {})
    done = int(progress.get("done", 0))
    planned = int(progress.get("planned", 0))
    pct = progress.get("pct", 0.0 if planned else None)

    lines = []
    title = (f"repro top -- run {doc.get('run', '?')}  state={state}"
             f"  jobs={doc.get('jobs', '?')}  pid={doc.get('pid', '?')}")
    if stale:
        title += f"  [STALE: last heartbeat {age:.0f}s ago]"
    lines.append(title)
    lines.append("experiments: " + ", ".join(doc.get("experiments", []))
                 if doc.get("experiments") else "experiments: ?")
    bar = progress_bar(done, planned)
    pct_text = f"{pct:5.1f}%" if pct is not None else "    ?%"
    lines.append(f"{bar} {pct_text}  {done}/{planned} trials"
                 f"  eta {fmt_eta(doc.get('eta_s'))}"
                 f"  elapsed {doc.get('elapsed_s', 0.0):.1f}s")
    detail = []
    for field in ("computed", "cache_hits", "shard_skipped"):
        if progress.get(field):
            detail.append(f"{field}={progress[field]}")
    if detail:
        lines.append("  " + "  ".join(detail))

    counters = doc.get("counters", {})
    chaos = [f"{field}={counters[field]}"
             for field in ("retries", "timeouts", "worker_deaths",
                           "respawns", "corrupt")
             if counters.get(field)]
    if chaos:
        lines.append("chaos: " + "  ".join(chaos))

    workers = doc.get("workers", [])
    if workers:
        lines.append("")
        lines.append(f"{'slot':>4} {'pid':>8} {'trial':<14} {'att':>3} "
                     f"{'busy':>8} {'sent':>5}")
        for worker in workers:
            trial = worker.get("trial") or "idle"
            lines.append(
                f"{worker.get('slot', '?'):>4} {worker.get('pid', '?'):>8} "
                f"{trial:<14} {worker.get('attempt', 0):>3} "
                f"{worker.get('busy_s', 0.0):>7.1f}s "
                f"{worker.get('sent', 0):>5}")

    recent = doc.get("recent", [])
    if recent:
        lines.append("")
        lines.append("recent events:")
        for record in recent:
            key = record.get("k")
            suffix = f"  {key}" if key else ""
            lines.append(f"  #{record.get('seq', '?'):<5} "
                         f"{record.get('kind', '?'):<18}{suffix}")

    if doc.get("postmortem"):
        lines.append("")
        lines.append(f"postmortem bundle: {doc['postmortem']}/")
    events = doc.get("events", {})
    lines.append("")
    lines.append(f"events: {events.get('total', 0)} total"
                 f"  heartbeat age {age:.1f}s")
    return "\n".join(lines) + "\n"


def run_top(run_dir, *, once: bool = False, as_json: bool = False,
            interval_s: float = 1.0, out=None, frames: int | None = None,
            ) -> int:
    """Drive the monitor loop; returns a process exit code.

    ``once`` prints a single frame; ``as_json`` prints the raw
    heartbeat document instead of rendering.  ``frames`` bounds the
    loop for tests.  Exit code 0 when a heartbeat was seen, 1 when the
    directory never produced one (in ``--once`` mode).
    """
    import sys

    out = sys.stdout if out is None else out
    telemetry = resolve_dir(run_dir)
    status_path = telemetry / STATUS_NAME
    seen = False
    count = 0
    while True:
        doc = load_status(status_path)
        seen = seen or doc is not None
        if as_json:
            out.write(json.dumps(doc, sort_keys=True) + "\n")
        else:
            frame = render_frame(doc)
            out.write(frame if once else _CLEAR + frame)
        out.flush()
        count += 1
        if once or (frames is not None and count >= frames):
            break
        if doc is not None and doc.get("state") != "running":
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            break
    return 0 if seen else 1
