"""Every counter surface carries exactly its family's declared keys.

Each counter family has one declaration -- :class:`EngineCounters`
(deterministic fields, plus fields tagged host), :class:`SPC` with its
derived counters, the lock/progress gauges :data:`OBS_GAUGES`,
:class:`SchedStats` and :class:`TransportStats`.  These tests check
that every place a user reads those counters (``manifest.json``,
``engine.metrics.csv``, ``status.json``, ``metrics.prom``, the
``sweep.finish`` event, ``obs_counters``, the metrics time-series and
the ``as_dict`` views) shows exactly the declared keys: no surface may
keep a private list that drifts from the declaration.
"""

import csv
import dataclasses
import json
import pathlib
import sys

from repro.cli import main
from repro.engine import EngineCounters
from repro.mpi.spc import DERIVED, OBS_GAUGES, SPC, SPCAggregate
from repro.netsim.transport import TransportStats
from repro.obs.live import EVENTS_NAME, read_events
from repro.obs.live.prom import metric_name
from repro.obs.metrics import MetricsRegistry
from repro.simthread.stats import SchedStats

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from lint_events import lint_dir  # noqa: E402

DETERMINISTIC = list(EngineCounters().deterministic())
ROW = list(EngineCounters().as_row())
SPC_FIELDS = [f.name for f in dataclasses.fields(SPC)]


def _run(tmp_path, monkeypatch, capsys):
    """One small ``repro run fig3a --jobs 2 --out`` (one thread pair)."""
    import repro.experiments.figure3 as f3

    monkeypatch.setattr(f3, "QUICK_PAIRS", (1,))
    out = tmp_path / "out"
    assert main(["run", "fig3a", "--jobs", "2", "--no-cache",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_engine_surfaces_derive_from_the_declaration(tmp_path, monkeypatch,
                                                     capsys):
    out = _run(tmp_path, monkeypatch, capsys)
    assert "batches" in DETERMINISTIC
    assert not {"wall_ns", "busy_ns", "workers"} & set(DETERMINISTIC)

    engine = json.loads((out / "manifest.json").read_text())["engine"]
    assert set(engine) == set(DETERMINISTIC) | {"jobs", "shard",
                                                "workers_used", "host"}
    assert set(engine["host"]) == set(EngineCounters().host())

    with (out / "engine.metrics.csv").open() as fh:
        header = next(csv.reader(fh))
    assert header == ROW + ["jobs", "utilization"]

    telemetry = out / "telemetry"
    status = json.loads((telemetry / "status.json").read_text())
    assert set(status["counters"]) == set(ROW) | {"jobs", "utilization"}

    prom = (telemetry / "metrics.prom").read_text().splitlines()
    engine_metrics = {line.split()[2] for line in prom
                      if line.startswith("# TYPE repro_engine_")}
    assert engine_metrics == {metric_name(f"engine_{key}")
                              for key in status["counters"]}

    finish = [e for e in read_events(telemetry / EVENTS_NAME)
              if e["kind"] == "sweep.finish"]
    assert set(finish[-1]["counters"]) == set(DETERMINISTIC)
    assert finish[-1]["counters"]["batches"] == 1

    problems: list[str] = []
    lint_dir(telemetry, problems)
    assert problems == []


def test_obs_counters_list_every_gauge_in_declared_order(sched, world):
    assert list(world.processes[0].obs_counters()) == list(OBS_GAUGES)
    assert list(world.obs_total()) == list(OBS_GAUGES)


def test_metrics_columns_are_spc_fields_then_gauges(sched, world):
    reg = MetricsRegistry(world, interval_ns=10_000)
    sched.run()
    reg.finalize()
    assert reg.columns == (("t_ns",) + tuple(SPC_FIELDS) + tuple(OBS_GAUGES)
                           + ("posted_depth", "unexpected_depth",
                              "oos_depth", "cri_utilization"))
    assert list(reg.rows[-1]) == list(reg.columns)


def test_spc_as_dict_reports_match_time_in_ms_only():
    keys = set(SPC().as_dict())
    assert keys == (set(SPC_FIELDS) - {"match_time_ns"}) | set(DERIVED)
    assert "match_time_ms" in keys and "match_time_ns" not in keys


def test_spc_aggregate_sums_counters_and_maxes_high_watermarks():
    a, b = SPC(), SPC()
    for i, name in enumerate(SPC_FIELDS):
        setattr(a, name, i + 1)
        setattr(b, name, 2 * (i + 1))
    agg = SPCAggregate()
    agg.add(a)
    agg.add(b)
    total = agg.total()
    for i, name in enumerate(SPC_FIELDS):
        merged = 2 * (i + 1) if name.endswith("_high_watermark") \
            else 3 * (i + 1)
        assert getattr(total, name) == merged, name
    assert SPCAggregate().total() == SPC()


def test_sched_and_transport_stats_as_dict_follow_their_fields():
    assert list(SchedStats().as_dict()) == list(SchedStats.__slots__)
    tallies = [f.name for f in dataclasses.fields(TransportStats)]
    tallies.remove("in_flight")
    assert list(TransportStats().as_dict()) == tallies
