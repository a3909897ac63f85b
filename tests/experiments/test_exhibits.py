"""Every committed exhibit file reproduces byte for byte.

The ``exhibits`` fixture (conftest.py) regenerates every registered
exhibit the way ``repro run all --out results/`` does.  Each written
file must equal its ``results/`` copy, and ``results/`` must hold no
exhibit file the regeneration did not write.
"""

import fnmatch

from tests.experiments.conftest import RESULTS

#: entries of results/ that are not exhibit files: the README, the perf
#: baselines (pinned by ``repro perf check``), the analyzer output
#: (pinned by tests/test_cli.py), and the gitignored leftovers of a
#: local ``repro run ... --out results/`` or ``repro profile``
NOT_EXHIBITS = ("README.md", "BENCH_*.json", "analysis",
                "engine.metrics.csv", "manifest.json", ".cache",
                "telemetry", "profile")


def test_every_exhibit_file_matches_results(exhibits):
    differ = [path.name for path in exhibits.paths
              if not (RESULTS / path.name).is_file()
              or path.read_bytes() != (RESULTS / path.name).read_bytes()]
    assert not differ, f"regenerated files that differ from results/: {differ}"


def test_results_holds_no_exhibit_the_regeneration_does_not_write(exhibits):
    committed = {path.name for path in RESULTS.iterdir()
                 if not any(fnmatch.fnmatch(path.name, pattern)
                            for pattern in NOT_EXHIBITS)}
    assert committed == {path.name for path in exhibits.paths}
