"""Performance-regression observatory: seeded baselines, gated in CI.

The virtual-time simulator makes a kind of perf testing possible that
wall-clock timings never deliver: every metric that matters -- elapsed
virtual time, message counts, SPC aggregates, artifact hashes -- is a
*pure function of the seed*.  This package turns that into a registry:

* :mod:`.probes` -- one deterministic probe per baseline family;
* :mod:`.baseline` -- the ``results/BENCH_<name>.json`` schema
  (version 3: one gated ``deterministic`` section);
* :mod:`.check` -- ``python -m repro perf check|update``: diff fresh
  probe runs against the committed baselines with per-metric
  tolerances and a readable delta report.

A drifted metric is a *behaviour change by construction* -- there is no
runner noise to argue about -- so CI can gate on it exactly.  Host
speed is measured once, by the repo benchmark (``bench/run.py`` and
``bench/compare.py``).
"""

from repro.perf.baseline import (SCHEMA_VERSION, bench_path, dump_bench,
                                 empty_doc, list_benches, load_bench,
                                 write_bench)
from repro.perf.check import (BenchCheck, CheckReport, Delta, check_benches,
                              compare, render_report, report_json,
                              update_benches, values_match)
from repro.perf.probes import PROBES, run_probe

__all__ = [
    "BenchCheck",
    "CheckReport",
    "Delta",
    "PROBES",
    "SCHEMA_VERSION",
    "bench_path",
    "check_benches",
    "compare",
    "dump_bench",
    "empty_doc",
    "list_benches",
    "load_bench",
    "render_report",
    "report_json",
    "run_probe",
    "update_benches",
    "values_match",
    "write_bench",
]
