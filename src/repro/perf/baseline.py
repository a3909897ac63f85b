"""``BENCH_<name>.json``: schema and IO for the baseline registry.

Schema version 3 holds one section, ``deterministic``: metrics that are
a pure function of the seed (virtual-time totals, message counts, SPC
aggregates, artifact hashes).  These are byte-stable across machines
and Python versions, so CI diffs them exactly; a change means the
simulation's *behaviour* changed, not the weather on the runner.  Host
speed is measured by the repo benchmark (``bench/run.py``), not here.

Files are written with sorted keys and a trailing newline so
regeneration is byte-stable too.
"""

from __future__ import annotations

import json
import pathlib

#: bump when the document layout changes
SCHEMA_VERSION = 3


def bench_path(results_dir, name: str) -> pathlib.Path:
    """The canonical path of one baseline file."""
    return pathlib.Path(results_dir) / f"BENCH_{name}.json"


def empty_doc(name: str) -> dict:
    """A fresh schema-3 document."""
    return {"schema": SCHEMA_VERSION, "name": name, "deterministic": {}}


def load_bench(path) -> dict:
    """Read one baseline; absent, corrupt or old-schema files read empty."""
    path = pathlib.Path(path)
    name = path.stem.removeprefix("BENCH_")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return empty_doc(name)
    if doc.get("schema") != SCHEMA_VERSION \
            or not isinstance(doc.get("deterministic"), dict):
        return empty_doc(name)
    doc.setdefault("name", name)
    return doc


def dump_bench(doc: dict) -> str:
    """Serialize one document (stable key order, trailing newline)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_bench(results_dir, name: str, deterministic: dict) -> pathlib.Path:
    """Write one baseline with this ``deterministic`` section."""
    path = bench_path(results_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = empty_doc(name)
    doc["deterministic"] = dict(deterministic)
    path.write_text(dump_bench(doc))
    return path


def list_benches(results_dir) -> list[pathlib.Path]:
    """All committed baseline files, sorted by name."""
    return sorted(pathlib.Path(results_dir).glob("BENCH_*.json"))
