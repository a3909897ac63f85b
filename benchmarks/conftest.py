"""Benchmark-suite fixtures.

Every bench regenerates the data behind one paper exhibit and saves it
under ``results/`` (ASCII table, long-form CSV, SVG) while pytest-benchmark
times a representative simulation run.  Pass ``--full`` for the paper-
density parameter sets (slower); the default quick sets finish the whole
suite in minutes.

``perf_baseline`` connects each bench family to the regression
registry (:mod:`repro.perf`): it reruns the family's deterministic
probe, rewrites ``results/BENCH_<name>.json`` (gated ``deterministic``
section from the probe, informational ``host`` section from this
machine) and returns the metrics so the bench can assert on them.
"""

from __future__ import annotations

import pathlib
import platform
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser):
    """Register the --full (paper-density) suite option."""
    parser.addoption("--full", action="store_true", default=False,
                     help="run benches at paper density (slow)")


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True unless --full was passed: use the quick parameter sets."""
    return not request.config.getoption("--full")


@pytest.fixture(scope="session")
def save_figure():
    """Persist a runner's result (one figure or a list) under results/.

    Writes through :func:`repro.experiments.artifacts.save_result`, the
    writer behind ``repro run --out``, so a bench and the CLI produce
    the same bytes for the same exhibit.
    """
    from repro.experiments.artifacts import figures_of, save_result

    def _save(result):
        save_result(result, RESULTS_DIR)
        for fig in figures_of(result):
            print()
            print(fig.to_ascii())

    return _save


#: trajectory entries kept per baseline (oldest dropped first)
TRAJECTORY_CAP = 40


@pytest.fixture(scope="session")
def perf_baseline():
    """Record one family's baseline: probed metrics + host wall-clock.

    Besides refreshing the flat host fields, each recording appends a
    ``host.trajectory`` entry (wall seconds + interpreter version,
    capped at :data:`TRAJECTORY_CAP`) so ``repro perf report`` can draw
    per-family sparklines of how probe cost evolves across recordings.
    """
    from repro.perf import bench_path, load_bench, run_probe, write_bench

    def _record(name: str, host: dict | None = None) -> dict:
        t0 = time.perf_counter()
        deterministic = run_probe(name)
        wall_s = round(time.perf_counter() - t0, 3)
        trajectory = list(load_bench(bench_path(RESULTS_DIR, name))
                          .get("host", {}).get("trajectory", []))
        trajectory.append({"probe_wall_s": wall_s,
                           "python": platform.python_version()})
        host_section = {
            "probe_wall_s": wall_s,
            "python": platform.python_version(),
            "trajectory": trajectory[-TRAJECTORY_CAP:],
            **(host or {}),
        }
        path = write_bench(RESULTS_DIR, name, deterministic,
                           host=host_section)
        print(f"\nbaseline: {path} ({len(deterministic)} deterministic "
              "metrics)")
        return deterministic

    return _record
