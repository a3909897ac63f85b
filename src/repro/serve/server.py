"""The HTTP surface: ``ThreadingHTTPServer`` routes over the job index.

Stdlib only, one handler class, five routes:

* ``POST /experiments`` -- submit ``{"exhibit": ..., "params": {...}}``;
  201 on a cold job, 200 on a dedup hit, 400/404 on invalid input,
  503 when the admission queue is full.
* ``GET /experiments`` / ``GET /experiments/<id>`` -- job listings and
  per-job status snapshots.
* ``GET /experiments/<id>/events`` -- the SSE telemetry stream
  (:mod:`~repro.serve.sse`), ``?from=N`` or ``Last-Event-ID`` for
  replay-from-seq.
* ``GET /artifacts/<id>/`` / ``GET /artifacts/<id>/<name>`` -- a
  finished job's artifact listing and bytes, with ``ETag`` keyed on
  the request digest (the content hash), honouring ``If-None-Match``
  with 304.  A job that is still running answers 409 -- cold work
  never blocks a cached read, it just isn't served until it is whole.
* ``GET /stats`` / ``GET /healthz`` -- service accounting and liveness.

Every handler thread is independent (``ThreadingHTTPServer`` with
daemon threads), so slow SSE subscribers cannot block submissions --
the many-clients-one-resource-pool regime the paper studies, applied
to the service itself.  :class:`ExperimentServer` wraps server +
:class:`~repro.serve.jobs.JobIndex` construction, background start for
tests, and orderly shutdown for the CLI.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serve.dedup import BadRequest, UnknownExhibit
from repro.serve.jobs import JobIndex, QueueFull
from repro.serve.sse import job_event_stream

#: largest request body the service will read (a param doc is tiny)
MAX_BODY = 64 * 1024

#: how often the accept loop checks for a shutdown request (seconds);
#: socketserver's default of 0.5 s is what every ``stop()`` would wait
POLL_INTERVAL_S = 0.05

#: artifact suffix -> Content-Type
CONTENT_TYPES = {
    ".csv": "text/csv; charset=utf-8",
    ".svg": "image/svg+xml",
    ".txt": "text/plain; charset=utf-8",
    ".json": "application/json",
    ".jsonl": "application/x-ndjson",
    ".prom": "text/plain; charset=utf-8",
}


class ServeHandler(BaseHTTPRequestHandler):
    """One HTTP request against the job index (see module docs)."""

    server_version = "repro-serve/1"

    @property
    def index(self) -> JobIndex:
        """The owning server's job index."""
        return self.server.index

    def log_message(self, fmt, *args):
        """Route access logs through the server's quiet flag."""
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            sys.stderr.write(f"{self.address_string()} {fmt % args}\n")

    # -- helpers --------------------------------------------------------
    def _json(self, status: int, doc: dict, headers=()) -> None:
        """Write one complete JSON response."""
        body = (json.dumps(doc, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _job_doc(self, job, created: bool = False) -> dict:
        doc = job.snapshot()
        doc["deduped"] = not created
        doc["links"] = {
            "self": f"/experiments/{job.id}",
            "events": f"/experiments/{job.id}/events",
            "artifacts": f"/artifacts/{job.id}/",
        }
        return doc

    # -- POST -----------------------------------------------------------
    def do_POST(self):
        """``POST /experiments``: submit one request for an exhibit."""
        if urlsplit(self.path).path.rstrip("/") != "/experiments":
            return self._error(404, f"no such endpoint: POST {self.path}")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return self._error(400, "bad Content-Length")
        if length > MAX_BODY:
            return self._error(413, f"body exceeds {MAX_BODY} bytes")
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            return self._error(400, "request body is not valid JSON")
        if not isinstance(body, dict):
            return self._error(400, "request body must be a JSON object")
        try:
            job, created = self.index.submit(body.get("exhibit"),
                                             body.get("params"))
        except UnknownExhibit as exc:
            return self._error(404, str(exc))
        except BadRequest as exc:
            return self._error(400, str(exc))
        except QueueFull as exc:
            return self._json(503, {"error": str(exc)},
                              headers=(("Retry-After", "1"),))
        self._json(201 if created else 200, self._job_doc(job, created))

    # -- GET ------------------------------------------------------------
    def do_GET(self):
        """Dispatch one GET to the matching route."""
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        if not parts or parts == ["healthz"]:
            return self._json(200, {"ok": True,
                                    "service": self.server_version})
        if parts == ["stats"]:
            return self._json(200, self.index.stats())
        if parts == ["experiments"]:
            return self._json(200, {"jobs": [
                self._job_doc(job) for job in self.index.list_jobs()]})
        if parts[0] == "experiments" and len(parts) == 2:
            job = self.index.get(parts[1])
            if job is None:
                return self._error(404, f"no such job {parts[1]!r}")
            return self._json(200, self._job_doc(job))
        if parts[0] == "experiments" and len(parts) == 3 \
                and parts[2] == "events":
            return self._stream_events(parts[1], query)
        if parts[0] == "artifacts" and len(parts) in (2, 3):
            return self._artifact(parts[1], parts[2] if len(parts) == 3
                                  else None)
        return self._error(404, f"no such endpoint: GET {split.path}")

    def _stream_events(self, job_id: str, query: dict) -> None:
        """The SSE route: replay + live-follow one job's event log."""
        job = self.index.get(job_id)
        if job is None:
            return self._error(404, f"no such job {job_id!r}")
        from_seq = 0
        last_id = self.headers.get("Last-Event-ID")
        if last_id is not None:
            try:
                from_seq = int(last_id) + 1
            except ValueError:
                return self._error(400, f"bad Last-Event-ID {last_id!r}")
        if "from" in query:
            try:
                from_seq = int(query["from"][0])
            except ValueError:
                return self._error(400,
                                   f"bad from={query['from'][0]!r}")
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            for frame in job_event_stream(
                    job, from_seq=from_seq,
                    timeout_s=self.server.stream_timeout_s):
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass                # subscriber went away: nothing to clean up

    def _artifact(self, job_id: str, name: str | None) -> None:
        """The artifact route: listing, bytes + ETag, or 304."""
        job = self.index.get(job_id)
        if job is None:
            return self._error(404, f"no such artifact set {job_id!r}")
        if job.state == "failed":
            return self._error(410, f"job {job_id} failed: "
                                    f"{job.error}")
        if job.state != "done":
            return self._json(409, {"error": f"job {job_id} is "
                                             f"{job.state}; artifacts "
                                             "are served when done",
                                    "state": job.state},
                              headers=(("Retry-After", "1"),))
        if name is None or not name:
            return self._json(200, {"id": job.id,
                                    "artifacts": job.artifact_names()})
        path = job.dir / name
        # plain names only: the job dir is flat and traversal is not a URL
        if "/" in name or "\\" in name or name.startswith(".") \
                or not path.is_file():
            return self._error(404, f"no artifact {name!r} in {job_id}")
        etag = f'"{job.id}/{name}"'
        if self.headers.get("If-None-Match") == etag:
            self.send_response(304)
            self.send_header("ETag", etag)
            self.end_headers()
            return
        data = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPES.get(
            path.suffix, "application/octet-stream"))
        self.send_header("Content-Length", str(len(data)))
        self.send_header("ETag", etag)
        self.send_header("Cache-Control", "max-age=31536000, immutable")
        self.end_headers()
        self.wfile.write(data)


class ExperimentServer:
    """The assembled service: index + threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` runs the
    accept loop on a background thread and :meth:`stop` shuts both the
    listener and the worker pool down in order.  ``index_options`` pass
    through to :class:`~repro.serve.jobs.JobIndex`.
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True, stream_timeout_s: float = 300.0,
                 **index_options):
        self.root = pathlib.Path(root)
        self.index = JobIndex(self.root, **index_options)
        self.httpd = ThreadingHTTPServer((host, port), ServeHandler)
        self.httpd.daemon_threads = True
        self.httpd.index = self.index
        self.httpd.quiet = quiet
        self.httpd.stream_timeout_s = stream_timeout_s
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """The bound interface address."""
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with ``port=0``)."""
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        """The service base URL."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "ExperimentServer":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        args=(POLL_INTERVAL_S,),
                                        name="serve-accept", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self.httpd.serve_forever(POLL_INTERVAL_S)
        except KeyboardInterrupt:   # pragma: no cover - interactive
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Orderly shutdown: stop accepting, then drain the workers."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.index.close()
