"""``BENCH_<name>.json``: schema and IO for the baseline registry.

Schema version 2 splits every baseline into two sections:

* ``deterministic`` -- metrics that are a pure function of the seed
  (virtual-time totals, message counts, SPC aggregates, artifact
  hashes).  These are byte-stable across machines and Python versions,
  so CI diffs them exactly; a change means the simulation's *behaviour*
  changed, not the weather on the runner.
* ``host`` -- wall-clock timings, utilization, interpreter version.
  Informational only: recorded so trends are visible in review, never
  gated on.

Files are written with sorted keys and a trailing newline so
regeneration is byte-stable too.  Version-1 files (the PR-3
``BENCH_engine.json``, a bare wall-clock trajectory) are migrated on
load: their entries become ``host.trajectory``.
"""

from __future__ import annotations

import json
import pathlib

#: bump when the document layout changes
SCHEMA_VERSION = 2


def bench_path(results_dir, name: str) -> pathlib.Path:
    """The canonical path of one baseline file."""
    return pathlib.Path(results_dir) / f"BENCH_{name}.json"


def empty_doc(name: str) -> dict:
    """A fresh schema-2 document."""
    return {"schema": SCHEMA_VERSION, "name": name,
            "deterministic": {}, "host": {}}


def load_bench(path) -> dict:
    """Read one baseline; absent/corrupt files yield a fresh document.

    Version-1 documents (a ``trajectory`` list of wall-clock entries)
    are migrated in memory: the trajectory moves under ``host``.
    """
    path = pathlib.Path(path)
    name = path.stem.removeprefix("BENCH_")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return empty_doc(name)
    if doc.get("schema") == 1 and isinstance(doc.get("trajectory"), list):
        migrated = empty_doc(name)
        migrated["host"]["trajectory"] = doc["trajectory"]
        return migrated
    if doc.get("schema") != SCHEMA_VERSION \
            or not isinstance(doc.get("deterministic"), dict) \
            or not isinstance(doc.get("host"), dict):
        return empty_doc(name)
    doc.setdefault("name", name)
    return doc


def dump_bench(doc: dict) -> str:
    """Serialize one document (stable key order, trailing newline)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_bench(results_dir, name: str, deterministic: dict,
                host: dict | None = None) -> pathlib.Path:
    """Write one baseline, replacing the deterministic section.

    ``host=None`` preserves whatever host section the file already has
    (``perf update`` refreshes baselines without inventing wall-clock
    numbers); passing a dict merges it over the existing one.
    """
    path = bench_path(results_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = load_bench(path)
    doc["name"] = name
    doc["deterministic"] = dict(deterministic)
    if host is not None:
        doc["host"] = {**doc.get("host", {}), **host}
    path.write_text(dump_bench(doc))
    return path


def record_trajectory(results_dir, name: str, entry: dict) -> dict:
    """Append ``entry`` to ``host.trajectory`` and rewrite the file.

    The trajectory is a bench's wall-clock history, oldest first, one
    entry per labelled measurement; informational only, like the rest
    of ``host``.  Entries with the same ``label`` replace the previous
    measurement so reruns refresh rather than duplicate; distinct labels
    accumulate.  The ``deterministic`` section is left untouched.
    """
    if "label" not in entry:
        raise ValueError("trajectory entries need a 'label'")
    path = bench_path(results_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = load_bench(path)
    trajectory = [e for e in doc["host"].get("trajectory", [])
                  if e.get("label") != entry["label"]]
    doc["host"]["trajectory"] = trajectory + [entry]
    path.write_text(dump_bench(doc))
    return doc


def list_benches(results_dir) -> list[pathlib.Path]:
    """All committed baseline files, sorted by name."""
    return sorted(pathlib.Path(results_dir).glob("BENCH_*.json"))
