"""Host-time profile of one representative run (``repro profile``).

:func:`profile_run` runs a traceable experiment's representative scenario
(:mod:`repro.obs.scenarios`) twice: first with a
:class:`~repro.simthread.stats.SchedStats` installed, for the scheduler
counters and lock rows; then under :mod:`cProfile` with nothing
installed, so the scheduler runs the loop body ``repro run`` runs.  Self
time and calls go to functions and, through :data:`PACKAGE_LAYER`, to
layers.  Counters, call counts and virtual-time columns are pure
functions of ``(exp_id, seed, micro)`` (:func:`counters_text`); host
nanoseconds and the layer shares appear only in :func:`profile_report`.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pathlib
import re
import sysconfig
import time
from dataclasses import dataclass

from repro.simthread.stats import SchedStats, lock_rows

#: ``src/repro`` packages (``mpi.rma`` split out of ``mpi``), C functions
#: (``builtins``), the interpreter's own library and everything else
LAYERS = ("simthread", "mpi", "mpi.rma", "core", "netsim", "workloads",
          "experiments", "engine", "obs", "serve", "builtins", "stdlib",
          "other")

#: ``src/repro/<package>`` -> layer; a package missing here would land in
#: ``other`` unnoticed, so the tests check that every package has a row
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

#: directory of the ``repro`` package, with a trailing separator
REPRO_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "")

_STDLIB = tuple({os.path.join(sysconfig.get_paths()[k], "")
                 for k in ("stdlib", "platstdlib")})
_SITE = tuple({os.path.join(sysconfig.get_paths()[k], "")
               for k in ("purelib", "platlib")})
#: the object address in a C function's label (``... at 0x7f...``)
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")
_LOCK_COLUMNS = ["name", "acquisitions", "contended", "tryfails",
                 "migrations", "wait_ns", "hold_ns"]


def layer_of(filename: str) -> str:
    """The layer of a function defined in ``filename`` (``~``: C code)."""
    if filename == "~":
        return "builtins"
    if filename.startswith(REPRO_DIR):
        parts = filename[len(REPRO_DIR):].split(os.sep)
        if len(parts) == 1:             # cli.py, __init__.py, __main__.py
            return "other"
        if parts[:2] == ["mpi", "rma"]:
            return "mpi.rma"
        return PACKAGE_LAYER.get(parts[0], "other")
    if filename.startswith("<frozen") or (
            filename.startswith(_STDLIB) and not filename.startswith(_SITE)):
        return "stdlib"
    return "other"


def _layer(code) -> str:
    """Layer of a ``getstats()`` code object; a C function's is a str."""
    return layer_of(getattr(code, "co_filename", "~"))


def _key(code) -> str:
    """Stable function name: ``module:co_name``, or the C function's label.

    The module is dotted below ``src/repro`` and the file's base name
    elsewhere, so no key embeds a machine-specific path; a C label
    loses the address of the object its method is bound to.
    """
    if isinstance(code, str):
        return _ADDRESS.sub("", code)
    name = code.co_filename
    if name.startswith(REPRO_DIR):      # mpi/rma/ops.py -> mpi.rma.ops.py
        name = name[len(REPRO_DIR):].replace(os.sep, ".")
    return f"{os.path.basename(name).removesuffix('.py')}:{code.co_name}"


def aggregate(entries) -> tuple[dict, dict]:
    """Fold ``Profile.getstats()`` into per-layer totals and edges.

    Returns ``({layer: {self_ns, calls, calls_in}}, {"A>B": calls})``:
    ``calls_in`` counts the calls that entered a layer from a function
    in another one, and each edge the calls from layer A into layer B.
    """
    totals = {name: {"self_ns": 0, "calls": 0, "calls_in": 0}
              for name in LAYERS}
    edges: dict[str, int] = {}
    for entry in entries:
        src = _layer(entry.code)
        row = totals[src]
        row["self_ns"] += round(entry.inlinetime * 1e9)
        row["calls"] += entry.callcount
        for sub in entry.calls or ():
            dst = _layer(sub.code)
            if dst != src:
                totals[dst]["calls_in"] += sub.callcount
                edges[f"{src}>{dst}"] = (edges.get(f"{src}>{dst}", 0)
                                         + sub.callcount)
    return totals, edges


def shares(totals: dict) -> dict:
    """Each layer's share of the summed self time."""
    whole = sum(row["self_ns"] for row in totals.values())
    return {name: (row["self_ns"] / whole if whole else 0.0)
            for name, row in totals.items()}


def function_rows(entries) -> list[dict]:
    """Per-function ``calls``/``self_ns``/``cum_ns``, sorted by calls.

    ``getstats()`` has one entry per code object; entries that share a
    key (every dataclass ``__init__`` is ``<string>:__init__``) are
    summed, so no count depends on which code object a dict kept.
    """
    rows: dict[str, dict] = {}
    for entry in entries:
        key = _key(entry.code)
        row = rows.setdefault(key, {"name": key, "calls": 0, "self_ns": 0,
                                    "cum_ns": 0})
        row["calls"] += entry.callcount
        row["self_ns"] += round(entry.inlinetime * 1e9)
        row["cum_ns"] += round(entry.totaltime * 1e9)
    return sorted(rows.values(), key=lambda r: (-r["calls"], r["name"]))


@dataclass
class ProfileResult:
    """Everything one :func:`profile_run` measured."""

    exp_id: str
    seed: int
    micro: bool
    label: str                     #: design label from the scenario map
    elapsed_ns: int                #: virtual time of the run
    events_processed: int
    host_wall_ns: int              #: host time of the profiled pass
    sched: dict                    #: SchedStats.as_dict()
    locks: list                    #: stats.lock_rows() rows
    layers: dict                   #: aggregate() totals
    functions: list                #: function_rows()


def profile_run(exp_id: str, seed: int = 1,
                micro: bool = False) -> ProfileResult:
    """Profile ``exp_id``'s representative scenario (see the module doc).

    The counters pass runs first, so the profiled pass imports nothing.
    Cyclic GC is paused around the profiled pass, after one collection:
    a collection inside it would run finalizers of earlier garbage, and
    their calls would land in the counts.  ``micro=True`` uses the
    scaled-down scenario shape.
    """
    from repro.obs.scenarios import representative_run, scenario_label

    label = scenario_label(exp_id)
    captured: dict = {}

    def instrument(sched, world):
        captured["sched"] = sched
        sched.set_stats(SchedStats())

    _, elapsed = representative_run(exp_id, seed=seed, instrument=instrument,
                                    micro=micro)
    sched = captured["sched"]

    profiler = cProfile.Profile()
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter_ns()
        _, profiled = profiler.runcall(representative_run, exp_id,
                                       seed=seed, micro=micro)
        host_wall = time.perf_counter_ns() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    if profiled != elapsed:  # pragma: no cover - determinism guard
        raise RuntimeError(f"profiled run diverged: {elapsed} != {profiled} "
                           "(the counters must not perturb the schedule)")
    entries = profiler.getstats()
    return ProfileResult(
        exp_id=exp_id, seed=seed, micro=micro, label=label,
        elapsed_ns=elapsed, events_processed=sched.events_processed,
        host_wall_ns=host_wall, sched=sched.stats.as_dict(),
        locks=lock_rows(sched), layers=aggregate(entries)[0],
        functions=function_rows(entries))


def _fmt_table(rows: list[dict], columns: list[str]) -> list[str]:
    """Aligned text table: header + one line per row."""
    cells = [[str(row[c]) for c in columns] for row in rows]
    widths = [max([len(c)] + [len(r[i]) for r in cells])
              for i, c in enumerate(columns)]
    return ["  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip()
            for line in [columns, *cells]]


def _layer_rows(result) -> list[dict]:
    """One row per layer, in :data:`LAYERS` order, with its share."""
    fraction = shares(result.layers)
    return [{"layer": name, "share": f"{fraction[name]:.1%}", **row}
            for name, row in result.layers.items()]


def counters_text(result, top: int = 20) -> str:
    """The deterministic report: byte-identical across runs of a scenario.

    Holds the run header, the scheduler counters, the per-lock rows
    (virtual-time wait/hold included), the layer table's calls and
    ``calls_in``, and the ``top`` functions by calls.
    """
    lines = [f"profile {result.exp_id} seed={result.seed} "
             f"micro={str(result.micro).lower()}",
             f"label: {result.label}",
             f"elapsed_ns: {result.elapsed_ns}",
             f"events_processed: {result.events_processed}",
             "", "[scheduler]"]
    lines += [f"{key}: {value}" for key, value in result.sched.items()]
    lines += ["", "[locks]"]
    lines += _fmt_table(result.locks, _LOCK_COLUMNS)
    lines += ["", "[layers]"]
    lines += _fmt_table(_layer_rows(result), ["layer", "calls", "calls_in"])
    lines += ["", f"[functions top {top} by calls]"]
    lines += _fmt_table(result.functions[:top], ["name", "calls"])
    return "\n".join(lines) + "\n"


def profile_report(result, top: int = 12) -> str:
    """The report for people: the counters plus host-time columns."""
    lines = [f"host profile: {result.exp_id} (seed {result.seed}"
             f"{', micro' if result.micro else ''})",
             f"label: {result.label}",
             f"virtual elapsed: {result.elapsed_ns} ns; "
             f"profiled host wall: {result.host_wall_ns / 1e6:.1f} ms; "
             f"events: {result.events_processed}",
             "", "[scheduler counters - deterministic]"]
    lines += [f"  {key:<18} {value}" for key, value in result.sched.items()]
    lines += ["", f"[locks top {top} by wait_ns, then hold_ns]"]
    locks = sorted(result.locks, key=lambda r: (-r["wait_ns"], -r["hold_ns"],
                                                r["name"]))[:top]
    lines += _fmt_table(locks, _LOCK_COLUMNS)
    lines += ["", "[layers] (share of self host time informational)"]
    lines += _fmt_table(_layer_rows(result),
                        ["layer", "share", "calls", "calls_in"])
    for column, label in (("self_ns", "self"), ("cum_ns", "cumulative")):
        lines += ["", f"[functions top {top} by {label} host ns] "
                      "(informational)"]
        rows = sorted(result.functions,
                      key=lambda r: (-r[column], r["name"]))[:top]
        lines += _fmt_table(rows, ["name", "calls", "self_ns", "cum_ns"])
    return "\n".join(lines) + "\n"


def save_profile(result, out_dir, top: int = 20) -> list[pathlib.Path]:
    """Write ``<exp>.profile.txt`` and ``<exp>.counters.txt``; return paths."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for suffix, text in ((".profile.txt", profile_report(result, top=top)),
                         (".counters.txt", counters_text(result, top=top))):
        path = out_dir / f"{result.exp_id}{suffix}"
        path.write_text(text)
        paths.append(path)
    return paths
