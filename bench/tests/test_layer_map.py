"""The layer map covers every ``src/repro`` package and attributes correctly."""

import cProfile
import json
import os
import pathlib

import pytest

import layers

REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
REPRO_DIR = os.path.join(str(REPRO), "")


def test_every_package_has_a_layer():
    packages = sorted(p.name for p in REPRO.iterdir()
                      if (p / "__init__.py").is_file())
    assert packages, "no packages found under src/repro"
    assert sorted(layers.PACKAGE_LAYER) == packages
    assert set(layers.PACKAGE_LAYER.values()) <= set(layers.LAYERS)


def test_files_map_to_layers():
    assert layers.layer_of("~", REPRO_DIR) == "builtins"
    assert layers.layer_of(str(REPRO / "mpi" / "rma" / "window.py"),
                           REPRO_DIR) == "mpi.rma"
    assert layers.layer_of(str(REPRO / "mpi" / "matching.py"),
                           REPRO_DIR) == "mpi"
    assert layers.layer_of(str(REPRO / "util" / "stats.py"),
                           REPRO_DIR) == "other"
    assert layers.layer_of(str(REPRO / "cli.py"), REPRO_DIR) == "other"
    assert layers.layer_of(json.__file__, REPRO_DIR) == "stdlib"
    assert layers.layer_of("<frozen importlib._bootstrap>", REPRO_DIR) == "stdlib"


def test_aggregate_counts_cross_layer_calls():
    from repro.simthread.scheduler import Scheduler

    def body(sched):
        for _ in range(5):
            sched.jittered(100)
        json.dumps({"x": 1})

    prof = cProfile.Profile()
    prof.runcall(body, Scheduler(seed=1))
    prof.create_stats()
    totals, edges = layers.aggregate(prof.stats, str(REPRO))
    assert set(totals) == set(layers.LAYERS)
    assert totals["simthread"]["calls"] == 5
    # the five jittered() calls come from this test module ("other")
    assert totals["simthread"]["calls_in"] == 5
    assert edges["other>simthread"] == 5
    assert totals["stdlib"]["calls_in"] >= 1
    assert sum(layers.shares(totals).values()) == pytest.approx(1.0)
