"""Attribute cProfile self time and call counts to the repository's layers.

A layer is a ``src/repro`` package (``mpi.rma`` is split out of
``mpi``).  Packages that are not hot on any workload fold into
``other``.  Functions implemented in C go to ``builtins``; Python code
from the interpreter's own library goes to ``stdlib``.

For every layer the aggregate holds its self time, the calls made to
its functions, and ``calls_in``: the calls that entered it from a
function in another layer.  Cross-layer caller -> callee edge counts
are kept too, for the trace file.
"""

from __future__ import annotations

import os
import sysconfig

LAYERS = ("simthread", "mpi", "mpi.rma", "core", "netsim", "workloads",
          "experiments", "engine", "obs", "serve", "builtins", "stdlib",
          "other")

#: ``src/repro/<package>`` -> layer; a package missing here is a bug the
#: tests catch, since it would silently land in ``other``
PACKAGE_LAYER = {
    "simthread": "simthread",
    "mpi": "mpi",
    "core": "core",
    "netsim": "netsim",
    "workloads": "workloads",
    "experiments": "experiments",
    "engine": "engine",
    "obs": "obs",
    "serve": "serve",
    "baselines": "other",
    "faults": "other",
    "perf": "other",
    "util": "other",
}

_STDLIB = tuple({os.path.join(sysconfig.get_paths()[k], "")
                 for k in ("stdlib", "platstdlib")})
_SITE = tuple({os.path.join(sysconfig.get_paths()[k], "")
               for k in ("purelib", "platlib")})


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer a function defined in ``filename`` belongs to.

    ``repro_dir`` is the directory of the ``repro`` package being
    measured (with a trailing separator).
    """
    if filename == "~":                 # cProfile's marker for C functions
        return "builtins"
    if filename.startswith(repro_dir):
        parts = filename[len(repro_dir):].split(os.sep)
        if len(parts) == 1:             # cli.py, __init__.py, __main__.py
            return "other"
        if parts[0] == "mpi" and parts[1] == "rma":
            return "mpi.rma"
        return PACKAGE_LAYER.get(parts[0], "other")
    if filename.startswith("<frozen") or (
            filename.startswith(_STDLIB) and not filename.startswith(_SITE)):
        return "stdlib"
    return "other"


def aggregate(raw_stats: dict, repro_dir: str) -> tuple[dict, dict]:
    """Fold ``Profile.stats`` into per-layer totals and cross-layer edges.

    ``raw_stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` as :meth:`cProfile.Profile.create_stats` leaves it.
    Returns ``({layer: {self_ns, calls, calls_in}}, {"A>B": calls})``.
    """
    repro_dir = os.path.join(repro_dir, "")
    cache: dict[str, str] = {}

    def layer(key) -> str:
        name = key[0]
        if name not in cache:
            cache[name] = layer_of(name, repro_dir)
        return cache[name]

    totals = {name: {"self_ns": 0, "calls": 0, "calls_in": 0}
              for name in LAYERS}
    edges: dict[str, int] = {}
    for func, (_cc, nc, tt, _ct, callers) in raw_stats.items():
        callee = layer(func)
        row = totals[callee]
        row["self_ns"] += round(tt * 1e9)
        row["calls"] += nc
        for caller, stats in callers.items():
            src = layer(caller)
            if src != callee:
                count = stats[0] if isinstance(stats, tuple) else stats
                row["calls_in"] += count
                edge = f"{src}>{callee}"
                edges[edge] = edges.get(edge, 0) + count
    return totals, edges


def merge(into: dict, totals: dict) -> dict:
    """Add one aggregate's per-layer totals into another (in place)."""
    for name, row in totals.items():
        acc = into.setdefault(name, {"self_ns": 0, "calls": 0, "calls_in": 0})
        for key, value in row.items():
            acc[key] += value
    return into


def shares(totals: dict) -> dict:
    """Each layer's share of the summed self time."""
    whole = sum(row["self_ns"] for row in totals.values())
    return {name: (row["self_ns"] / whole if whole else 0.0)
            for name, row in totals.items()}
