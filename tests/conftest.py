"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import ThreadingConfig
from repro.mpi import MpiWorld
from repro.simthread import Scheduler


@pytest.fixture(autouse=True)
def _isolated_trial_cache(tmp_path, monkeypatch):
    """Point the CLI's trial cache at a per-test directory.

    Keeps CLI runs inside tests from writing cache entries into the
    repository's ``results/.cache`` (and from seeing each other's warm
    entries).  The one deliberate user of ``results/.cache`` is the
    exhibit pin (``tests/experiments/conftest.py``), which builds its
    engine's cache explicitly, the way ``repro run all --out results/``
    does.
    """
    monkeypatch.setenv("REPRO_TRIAL_CACHE", str(tmp_path / "trial-cache"))


@pytest.fixture
def sched():
    """A deterministic scheduler (jitter on, fixed seed)."""
    return Scheduler(seed=12345, jitter=0.05)


@pytest.fixture
def quiet_sched():
    """A scheduler with zero jitter for exact-time assertions."""
    return Scheduler(seed=0, jitter=0.0)


def make_world(sched, nprocs=2, instances=2, assignment="dedicated",
               progress="serial", **kwargs):
    return MpiWorld(sched, nprocs=nprocs,
                    config=ThreadingConfig(num_instances=instances,
                                           assignment=assignment,
                                           progress=progress),
                    **kwargs)


@pytest.fixture
def world(sched):
    """A small two-process world with two CRIs each."""
    return make_world(sched)


def drive(sched, *gens):
    """Spawn generators as threads, run to completion, return the threads."""
    threads = [sched.spawn(g) for g in gens]
    sched.run()
    return threads
