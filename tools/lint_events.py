#!/usr/bin/env python
"""Validate a run's live-telemetry directory (the CI smoke's teeth).

Checks one telemetry directory -- ``events.jsonl``, ``status.json``,
``metrics.prom`` and any ``postmortem*/`` bundles -- against the
schemas in :mod:`repro.obs.live`:

* every event record parses, carries the current schema number, a
  known kind, the same run id, and a contiguous ``seq`` starting at 0
  (one torn final line is tolerated: that is the legal signature of a
  ``kill -9`` mid-append, and exactly what this linter must accept);
* trial-scoped events carry their fingerprint ``k``;
* when a ``sweep.finish`` event is present, its counters are exactly
  the deterministic fields of
  :class:`~repro.engine.engine.EngineCounters` and agree with the
  event tallies (retries == ``trial.retry`` events, and so on) -- the
  cross-check that keeps the event stream honest against the counters;
* ``status.json`` parses atomically-complete, carries the current
  schema, a legal state, internally consistent progress and (once an
  engine is attached) exactly the declared counter row plus ``jobs``
  and ``utilization``; in a terminal state its event total matches the
  log, and the state agrees with the log's last word (``finished``: an
  ``ok: true`` ``sweep.finish`` with no ``postmortem`` after it;
  ``failed``/``killed``: a ``postmortem`` or an ``ok: false`` finish);
* every ``metrics.prom`` sample line is Prometheus-parseable and typed;
* every postmortem bundle has a valid manifest naming only files that
  exist.

Usage::

    PYTHONPATH=src python tools/lint_events.py <telemetry-dir> [...]

Exit status: 0 when every directory validates, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

_SAMPLE = re.compile(r"^[a-z_][a-z0-9_]*(\{[^{}]*\})? \S+$")


def lint_events_file(path: pathlib.Path, problems: list[str]) -> list[dict]:
    """Validate one ``events.jsonl``; returns its parsed records.

    The file may have a live writer: only newline-terminated lines are
    records (a trailing fragment is an append in flight -- or the torn
    final line of a ``kill -9`` -- and is skipped without complaint,
    exactly as :func:`repro.obs.live.read_events` skips it).
    """
    from repro.obs.live import EVENT_KINDS, EVENTS_SCHEMA, complete_lines

    try:
        lines = complete_lines(path.read_text())
    except OSError as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return []
    records: list[dict] = []
    for n, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            if n == len(lines) - 1:
                continue        # torn final line: a crash mid-append is legal
            problems.append(f"{path}:{n + 1}: unparseable line mid-file")
            continue
        if not isinstance(record, dict):
            problems.append(f"{path}:{n + 1}: record is not an object")
            continue
        records.append(record)
    run_ids = set()
    for i, record in enumerate(records):
        where = f"{path} seq {record.get('seq', '?')}"
        if record.get("schema") != EVENTS_SCHEMA:
            problems.append(f"{where}: schema {record.get('schema')!r} "
                            f"!= {EVENTS_SCHEMA}")
        kind = record.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
        if record.get("seq") != i:
            problems.append(f"{path}: seq {record.get('seq')!r} at "
                            f"position {i} (must be contiguous from 0)")
        if not isinstance(record.get("ts"), (int, float)):
            problems.append(f"{where}: missing/non-numeric ts")
        if isinstance(kind, str) and kind.startswith("trial.") \
                and "k" not in record:
            problems.append(f"{where}: trial event without fingerprint k")
        run_ids.add(record.get("run"))
    if len(run_ids) > 1:
        problems.append(f"{path}: multiple run ids {sorted(map(str, run_ids))}")
    if records and records[0].get("kind") != "sweep.start":
        problems.append(f"{path}: first event is {records[0].get('kind')!r}, "
                        "expected sweep.start")
    _check_counter_agreement(path, records, problems)
    return records


def _check_keys(where: str, got, declared, problems) -> None:
    """A counter surface must carry exactly its declared keys."""
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    if missing or extra:
        problems.append(f"{where}: counter keys differ from the "
                        f"declaration (missing {missing}, extra {extra})")


def _check_counter_agreement(path, records, problems) -> None:
    """sweep.finish counters must be the declared deterministic fields
    and equal the event tallies exactly."""
    from repro.engine import EngineCounters

    finishes = [r for r in records if r.get("kind") == "sweep.finish"
                and isinstance(r.get("counters"), dict)]
    if not finishes:
        return
    counters = finishes[-1]["counters"]
    _check_keys(f"{path}: sweep.finish", counters,
                EngineCounters().deterministic(), problems)
    tallies = {}
    for record in records:
        tallies[record.get("kind")] = tallies.get(record.get("kind"), 0) + 1
    for field, kind in (("retries", "trial.retry"),
                        ("timeouts", "trial.timeout"),
                        ("worker_deaths", "worker.death"),
                        ("respawns", "worker.respawn")):
        if field in counters and counters[field] != tallies.get(kind, 0):
            problems.append(
                f"{path}: sweep.finish counter {field}={counters[field]} "
                f"but {tallies.get(kind, 0)} {kind} event(s)")


def lint_status_file(path: pathlib.Path, records: list[dict],
                     problems: list[str]) -> dict | None:
    """Validate one ``status.json`` against the event log's records."""
    from repro.obs.live import STATUS_SCHEMA, STATUS_STATES

    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: unreadable/unparseable ({exc}) -- "
                        "the heartbeat must always be a complete document")
        return None
    if doc.get("schema") != STATUS_SCHEMA:
        problems.append(f"{path}: schema {doc.get('schema')!r} "
                        f"!= {STATUS_SCHEMA}")
    if doc.get("state") not in STATUS_STATES:
        problems.append(f"{path}: state {doc.get('state')!r} not in "
                        f"{STATUS_STATES}")
    for field in ("ts", "pid"):
        if not isinstance(doc.get(field), (int, float)):
            problems.append(f"{path}: missing/non-numeric {field}")
    counters = doc.get("counters")
    if counters:                # empty until an engine is attached
        from repro.engine import EngineCounters

        _check_keys(f"{path}: counters", counters,
                    [*EngineCounters().as_row(), "jobs", "utilization"],
                    problems)
    progress = doc.get("progress", {})
    if progress.get("done", 0) > progress.get("planned", 0):
        problems.append(f"{path}: done {progress.get('done')} exceeds "
                        f"planned {progress.get('planned')}")
    if records:
        run_id = records[0].get("run")
        if doc.get("run") != run_id:
            problems.append(f"{path}: run {doc.get('run')!r} != event "
                            f"log's {run_id!r}")
        if doc.get("state") in ("finished", "failed", "killed"):
            if doc.get("events", {}).get("total") != len(records):
                problems.append(
                    f"{path}: final heartbeat reports "
                    f"{doc.get('events', {}).get('total')} events but the "
                    f"log holds {len(records)}")
            _check_last_word(path, doc["state"], records, problems)
    return doc


def _check_last_word(path, state: str, records: list[dict],
                     problems: list[str]) -> None:
    """A terminal state must agree with how the event log ends.

    ``finished`` needs a last ``sweep.finish`` with ``ok: true`` and no
    ``postmortem`` after it; ``failed``/``killed`` need a ``postmortem``
    or a ``sweep.finish`` with ``ok: false``.
    """
    kinds = [record.get("kind") for record in records]
    finishes = [i for i, kind in enumerate(kinds) if kind == "sweep.finish"]
    if state == "finished":
        if not finishes or records[finishes[-1]].get("ok") is not True:
            problems.append(f"{path}: state finished but the log's last "
                            "sweep.finish does not say ok: true")
        elif "postmortem" in kinds[finishes[-1]:]:
            problems.append(f"{path}: state finished but a postmortem "
                            "follows the last sweep.finish")
    elif "postmortem" not in kinds and \
            not any(records[i].get("ok") is False for i in finishes):
        problems.append(f"{path}: state {state} but the log holds neither "
                        "a postmortem nor a sweep.finish with ok: false")


def lint_prom_file(path: pathlib.Path, problems: list[str]) -> int:
    """Validate one ``metrics.prom``; returns the sample-line count."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return 0
    typed: set[str] = set()
    samples = 0
    for n, line in enumerate(lines):
        if not line:
            continue
        if line.startswith("#"):
            if not line.startswith(("# HELP ", "# TYPE ")):
                problems.append(f"{path}:{n + 1}: bad comment {line!r}")
            elif line.startswith("# TYPE "):
                typed.add(line.split()[2])
            continue
        if not _SAMPLE.match(line):
            problems.append(f"{path}:{n + 1}: unparseable sample {line!r}")
            continue
        name = line.split("{")[0].split()[0]
        if name not in typed:
            problems.append(f"{path}:{n + 1}: sample {name} has no "
                            "preceding # TYPE")
        samples += 1
    return samples


def lint_postmortem(bundle: pathlib.Path, problems: list[str]) -> None:
    """Validate one postmortem bundle's manifest and contents."""
    from repro.obs.live import POSTMORTEM_SCHEMA

    manifest_path = bundle / "postmortem.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{manifest_path}: unreadable/unparseable ({exc})")
        return
    if manifest.get("schema") != POSTMORTEM_SCHEMA:
        problems.append(f"{manifest_path}: schema "
                        f"{manifest.get('schema')!r} != {POSTMORTEM_SCHEMA}")
    if not manifest.get("reason"):
        problems.append(f"{manifest_path}: missing reason")
    for name in manifest.get("contents", []):
        if not (bundle / name).exists():
            problems.append(f"{bundle}: manifest names missing file {name}")
    ring = bundle / "ring.jsonl"
    if ring.exists():
        for n, line in enumerate(ring.read_text().splitlines()):
            try:
                json.loads(line)
            except ValueError:
                problems.append(f"{ring}:{n + 1}: unparseable ring record")


def lint_dir(telemetry: pathlib.Path, problems: list[str]) -> str:
    """Validate one telemetry directory; returns a one-line summary."""
    from repro.obs.live import EVENTS_NAME, PROM_NAME, STATUS_NAME

    events_path = telemetry / EVENTS_NAME
    if not events_path.exists():
        problems.append(f"{telemetry}: no {EVENTS_NAME}")
        return f"{telemetry}: nothing to lint"
    records = lint_events_file(events_path, problems)
    status = None
    if (telemetry / STATUS_NAME).exists():
        status = lint_status_file(telemetry / STATUS_NAME, records, problems)
    else:
        problems.append(f"{telemetry}: no {STATUS_NAME}")
    samples = 0
    if (telemetry / PROM_NAME).exists():
        samples = lint_prom_file(telemetry / PROM_NAME, problems)
    bundles = sorted(p for p in telemetry.glob("postmortem*") if p.is_dir())
    for bundle in bundles:
        lint_postmortem(bundle, problems)
    state = status.get("state") if status else "?"
    return (f"{telemetry}: {len(records)} events, state={state}, "
            f"{samples} prom samples, {len(bundles)} postmortem bundle(s)")


def main(argv: list[str]) -> int:
    """CLI entry point; returns 0 when every directory validates."""
    if not argv:
        print(__doc__.strip().splitlines()[0])
        print("usage: python tools/lint_events.py <telemetry-dir> [...]")
        return 2
    problems: list[str] = []
    for arg in argv:
        from repro.obs.live import resolve_dir

        print(lint_dir(resolve_dir(pathlib.Path(arg)), problems))
    if problems:
        print(f"\n{len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("events lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
