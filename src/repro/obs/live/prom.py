"""Prometheus textfile exposition: ``metrics.prom`` from the heartbeat.

External scrapers should not need a repro-specific protocol to watch a
sweep.  The node-exporter *textfile collector* convention -- a plain
file of ``# HELP`` / ``# TYPE`` / sample lines, atomically replaced on
update -- is the established way to publish metrics without running a
server, so the telemetry session derives ``metrics.prom`` from the same
snapshot that feeds ``status.json``.

:func:`render_prom` renders the engine-level surface: progress, engine
counters, per-worker busy gauges, and the run-id info metric.

Metric names follow Prometheus rules (``[a-z_][a-z0-9_]*``); anything
else in a counter name is folded to ``_``.
"""

from __future__ import annotations

import re

#: the filename every telemetry directory uses for the exposition
PROM_NAME = "metrics.prom"

#: metric name prefix for the engine-level exposition
PREFIX = "repro"

_NAME_OK = re.compile(r"[^a-z0-9_]+")


def metric_name(raw: str) -> str:
    """A Prometheus-legal metric name for ``raw`` under :data:`PREFIX`."""
    clean = _NAME_OK.sub("_", raw.lower()).strip("_")
    return f"{PREFIX}_{clean}"


def _sample(name: str, value, help_text: str, kind: str = "gauge",
            labels: str = "") -> list[str]:
    return [f"# HELP {name} {help_text}",
            f"# TYPE {name} {kind}",
            f"{name}{labels} {value}"]


def render_prom(snapshot: dict) -> str:
    """The engine-level exposition for one heartbeat snapshot.

    Emits the run info metric, every ``progress`` field, every numeric
    ``counters`` field (monotonic tallies as counters, the rest as
    gauges), the ETA when known, and one busy-seconds gauge per worker
    slot.  The document ends with a newline, as the textfile collector
    requires.
    """
    lines: list[str] = []
    run = snapshot.get("run", "")
    state = snapshot.get("state", "")
    info = metric_name("run_info")
    lines += _sample(info, 1, "one series per sweep run (labels carry "
                     "identity)", labels=f'{{run="{run}",state="{state}"}}')
    for field, value in sorted(snapshot.get("progress", {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name = metric_name(f"progress_{field}")
        lines += _sample(name, value, f"sweep progress: {field} trials")
    eta = snapshot.get("eta_s")
    if isinstance(eta, (int, float)):
        lines += _sample(metric_name("eta_seconds"), eta,
                         "estimated seconds until the sweep completes")
    for field, value in sorted(snapshot.get("counters", {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        kind = "gauge" if field in ("utilization", "jobs") else "counter"
        name = metric_name(f"engine_{field}")
        lines += _sample(name, value, f"engine counter: {field}", kind=kind)
    for worker in snapshot.get("workers", []):
        busy = worker.get("busy_s")
        slot = worker.get("slot")
        if busy is None or slot is None:
            continue
        name = metric_name("worker_busy_seconds")
        if f"# TYPE {name} gauge" not in lines:
            lines += [f"# HELP {name} seconds the worker has spent on its "
                      "current trial", f"# TYPE {name} gauge"]
        lines.append(f'{name}{{slot="{slot}"}} {busy}')
    return "\n".join(lines) + "\n"
