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

Each connection gets a handler thread of its own, so slow SSE
subscribers cannot block submissions -- the many-clients-one-resource-
pool regime the paper studies, applied to the service itself.  Like
the paper's dedicated CRI, a handler thread is set up once and reused:
:class:`ReusingHTTPServer` hands each accepted connection to an idle
handler and starts a new daemon thread only when none is idle.
:class:`ExperimentServer` wraps server +
:class:`~repro.serve.jobs.JobIndex` construction, background start for
tests, and orderly shutdown for the CLI.
"""

from __future__ import annotations

import json
import pathlib
import queue
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
            for chunk in job_event_stream(
                    job, from_seq=from_seq,
                    timeout_s=self.server.stream_timeout_s):
                self.wfile.write(chunk)
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
        if not name:
            return self._json(200, {"id": job.id,
                                    "artifacts": list(job.artifacts)})
        # only a file the job wrote: the listing it recorded at ``done``
        if name not in job.artifacts:
            return self._error(404, f"no artifact {name!r} in {job_id}")
        path = job.dir / name
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


class ReusingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` whose handler threads serve many connections.

    :meth:`process_request` hands each accepted connection to an idle
    handler, or starts one new daemon handler when none is idle, so a
    request never waits for a busy thread and a thread is started only
    when every handler is busy.  A handler runs
    ``ThreadingMixIn.process_request_thread`` (``finish_request``,
    ``handle_error``, ``shutdown_request``) and then waits for its next
    connection.  :meth:`server_close` wakes every idle handler to exit;
    a busy one exits after its current request.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._idle_lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # one inbox per idle handler
        self._closed = False

    def process_request(self, request, client_address):
        """Hand the connection to an idle handler, or start a new one."""
        with self._idle_lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is not None:
            inbox.put((request, client_address))
            return
        threading.Thread(target=self._handle_connections,
                         args=(request, client_address),
                         name="serve-handler", daemon=True).start()

    def _handle_connections(self, request, client_address) -> None:
        """One handler thread: serve connections until the server closes."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while request is not None:
            self.process_request_thread(request, client_address)
            with self._idle_lock:
                if self._closed:
                    return
                self._idle.append(inbox)
            request, client_address = inbox.get()

    def server_close(self):
        """Close the listener and wake every idle handler to exit."""
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put((None, None))


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
        self.httpd = ReusingHTTPServer((host, port), ServeHandler)
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
