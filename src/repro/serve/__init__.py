"""``repro.serve``: the concurrent experiment service.

The paper's thesis is that multithreaded MPI designs must be judged
under *concurrent, contended* traffic -- and so must this reproduction.
This package puts a long-running, stdlib-only HTTP service in front of
the experiment engine so N independent clients can request exhibits at
once and the interesting properties hold under contention:

* **dedup** -- requests are canonicalized through the engine's param
  encoding and content-addressed (:mod:`~repro.serve.dedup`), so N
  identical requests cost exactly one simulation;
* **job lifecycle** -- a bounded queue fans submissions out to worker
  threads, each running one :class:`~repro.serve.jobs.ServeJob` over
  its own engine + live-telemetry session (:mod:`~repro.serve.jobs`);
* **streaming** -- subscribers tail a running job's ``events.jsonl``
  over Server-Sent Events with replay-from-seq
  (:mod:`~repro.serve.sse`);
* **artifacts** -- finished jobs serve their byte-exact ``repro run``
  artifacts with ETags keyed on the request's content hash, so cold
  requests never block cached reads (:mod:`~repro.serve.server`);
* **client** -- a dependency-free HTTP/SSE client for tests, CI and
  ``repro submit`` (:mod:`~repro.serve.client`).

See ``docs/RUNBOOK.md`` (endpoints, curl examples) and
``docs/ARCHITECTURE.md`` (the dedup contract).
"""

from repro.serve.client import ServeClient
from repro.serve.dedup import (BadRequest, RequestKey, UnknownExhibit,
                               request_key)
from repro.serve.jobs import JobIndex, QueueFull, ServeJob
from repro.serve.server import ExperimentServer
from repro.serve.sse import format_event, job_event_stream, parse_sse

__all__ = [
    "BadRequest",
    "ExperimentServer",
    "JobIndex",
    "QueueFull",
    "RequestKey",
    "ServeClient",
    "ServeJob",
    "UnknownExhibit",
    "format_event",
    "job_event_stream",
    "parse_sse",
    "request_key",
]
