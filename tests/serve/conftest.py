"""Serve-suite fixtures: in-process servers and gated fake exhibits."""

from __future__ import annotations

import threading

import pytest

from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.serve import ExperimentServer, ServeClient
from repro.serve.server import ServeHandler


@pytest.fixture
def serve_factory(tmp_path):
    """Start in-process servers on ephemeral ports; stop them at teardown.

    Yields ``start(**options) -> (server, client)``; options pass
    through to :class:`ExperimentServer` / ``JobIndex``.
    """
    servers = []

    def start(**options):
        options.setdefault("root", tmp_path / f"served{len(servers)}")
        server = ExperimentServer(options.pop("root"), **options).start()
        servers.append(server)
        return server, ServeClient(server.url)

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def handler_threads(monkeypatch):
    """Note the thread that serves each request; returns that list."""
    seen = []
    handle = ServeHandler.handle

    def noting_handle(handler):
        seen.append(threading.current_thread())
        return handle(handler)

    monkeypatch.setattr(ServeHandler, "handle", noting_handle)
    return seen


class GatedRunner:
    """A fake exhibit runner that blocks until the test releases it.

    ``started`` is set the moment a worker enters the runner (the job
    is observably *running*); the runner then parks on ``release`` so
    tests can examine in-flight state without racing the worker.
    """

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, quick=True):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30), "test never released the gate"
        from repro.experiments.table1 import run_table1

        return run_table1()


@pytest.fixture
def gated_exhibit(monkeypatch):
    """Register gated fake exhibits in the experiment registry.

    Yields ``register(name) -> GatedRunner``; every gate is released at
    teardown so a failing test cannot leave a worker thread parked.
    """
    gates = []

    def register(name):
        runner = GatedRunner()
        gates.append(runner)
        monkeypatch.setitem(
            EXPERIMENTS, name,
            Experiment(name, "gated test exhibit", runner))
        return runner

    yield register
    for runner in gates:
        runner.release.set()


@pytest.fixture
def shrunk_fig3(monkeypatch):
    """Shrink fig3* to a single thread-pair so served runs stay fast."""
    import repro.experiments.figure3 as f3

    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    return f3
