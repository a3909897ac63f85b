"""Run the ``repro`` CLI with every thread under cProfile; dump layer totals.

Usage::

    python bench/serve_traced.py OUT.json serve --root DIR --port 0 ...

Used for the traced lifetimes of the ``service`` workload.  The service
is multithreaded (accept loop, one thread per request, job workers), and
a ``cProfile.Profile`` only sees the thread that enabled it, so this
launcher wraps ``threading.Thread.run`` to give each thread its own
profiler, and wraps ``BaseHTTPRequestHandler.parse_request`` to note
which request a handler thread served.  Both wraps live in this process
only; nothing in the program is edited.  Profiles use per-thread CPU
time, so a thread blocked in ``select`` or on a queue is not charged.

When the CLI returns (SIGINT stops the server), OUT.json receives one
record per thread: its name, the request line it served (if any), wall
start/end, and the per-layer totals from :mod:`layers`.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler

import layers


def _profiler() -> cProfile.Profile:
    return cProfile.Profile(time.thread_time_ns, 1e-9)


def main(argv: list[str]) -> int:
    """Profile ``repro.cli.main(argv[1:])``; write the records to ``argv[0]``."""
    out, cli_args = argv[0], argv[1:]
    records = []
    lock = threading.Lock()
    local = threading.local()

    parse_request = BaseHTTPRequestHandler.parse_request

    def noting_parse_request(handler):
        ok = parse_request(handler)
        if ok:
            local.request = f"{handler.command} {handler.path}"
        return ok

    thread_run = threading.Thread.run

    def profiled_run(thread):
        prof = _profiler()
        start = time.time()
        prof.enable()
        try:
            thread_run(thread)
        finally:
            prof.disable()
            with lock:
                records.append((thread.name, getattr(local, "request", None),
                                start, time.time(), prof))

    BaseHTTPRequestHandler.parse_request = noting_parse_request
    threading.Thread.run = profiled_run

    import repro
    from repro import cli

    prof = _profiler()
    start = time.time()
    prof.enable()
    try:
        code = cli.main(cli_args)
    finally:
        prof.disable()
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        records.append(("main", None, start, time.time(), prof))
        repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        docs = []
        for name, request, t0, t1, p in records:
            p.create_stats()
            totals, edges = layers.aggregate(p.stats, repro_dir)
            docs.append({"thread": name, "request": request, "start": t0,
                         "end": t1, "layers": totals, "edges": edges})
        with open(out, "w") as fh:
            json.dump({"threads": docs}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
