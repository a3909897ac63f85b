"""Live run telemetry: event log, heartbeat, ``repro top``, postmortem.

The ``repro.obs`` layers below this package explain a run *after* it
finishes (stats exports, dashboards, profiles).  ``repro.obs.live`` is
the during-the-run layer: a structured run-event log
(:mod:`~repro.obs.live.events`), an atomically-rewritten heartbeat plus
Prometheus textfile (:mod:`~repro.obs.live.status`,
:mod:`~repro.obs.live.prom`), a terminal monitor
(:mod:`~repro.obs.live.top`) and a crash flight recorder
(:mod:`~repro.obs.live.recorder`), all orchestrated by one
:class:`~repro.obs.live.session.LiveTelemetry` session that the CLI
wires into the engine.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.live.events import (EVENT_KINDS, EVENTS_NAME, EVENTS_SCHEMA,
                                   HOST_FIELDS, EventTail, RunEventLog,
                                   canonical_line, complete_lines,
                                   read_events, trial_digest)
from repro.obs.live.prom import PROM_NAME, metric_name, render_prom
from repro.obs.live.recorder import (POSTMORTEM_DIR, POSTMORTEM_SCHEMA,
                                     FlightRecorder)
from repro.obs.live.session import LiveTelemetry, PoolMonitor
from repro.obs.live.status import (STATUS_NAME, STATUS_SCHEMA, STATUS_STATES,
                                   load_status, write_status)
from repro.obs.live.top import render_frame, resolve_dir, run_top

__all__ = [
    "EVENT_KINDS", "EVENTS_NAME", "EVENTS_SCHEMA", "EventTail",
    "HOST_FIELDS", "RunEventLog", "canonical_line", "complete_lines",
    "read_events", "trial_digest",
    "PROM_NAME", "metric_name", "render_prom",
    "POSTMORTEM_DIR", "POSTMORTEM_SCHEMA", "FlightRecorder",
    "LiveTelemetry", "PoolMonitor",
    "STATUS_NAME", "STATUS_SCHEMA", "STATUS_STATES", "load_status",
    "write_status",
    "render_frame", "resolve_dir", "run_top",
]
