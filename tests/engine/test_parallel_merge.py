"""Deterministic parallel merge: ``--jobs 4`` must equal serial, byte for byte.

One exhibit per family -- figure (fig3a), table (table2), ablation-style
extension (ext-instances), chaos -- each regenerated serially and on a
4-worker pool with shrunk parameters, comparing the *rendered CSV bytes*
(the artifact the repo commits), not just the floats.
"""

from repro.engine import Engine, use_engine
from repro.experiments.figure3 import run_figure3
from repro.experiments.table2 import run_table2
from repro.experiments.chaos import run_chaos
from repro.experiments.extensions import run_instance_sweep


def _csv_with(engine, build):
    with use_engine(engine):
        return build().to_csv()


def _assert_parallel_identical(build, min_trials):
    serial_engine = Engine(jobs=1)
    serial = _csv_with(serial_engine, build)
    parallel_engine = Engine(jobs=4)
    parallel = _csv_with(parallel_engine, build)
    assert parallel == serial
    assert serial_engine.counters.trials == parallel_engine.counters.trials
    assert parallel_engine.counters.trials >= min_trials


def test_figure_family_fig3a(monkeypatch):
    import repro.experiments.figure3 as f3
    monkeypatch.setattr(f3, "QUICK_PAIRS", (1, 2))
    _assert_parallel_identical(lambda: run_figure3("a", quick=True),
                               min_trials=6 * 2 * 2)


def test_table_family_table2():
    _assert_parallel_identical(lambda: run_table2(quick=True, pairs=4),
                               min_trials=9)


def test_ablation_family_ext_instances(monkeypatch):
    import repro.experiments.extensions as ext
    monkeypatch.setattr(ext, "INSTANCE_AXIS", (1, 2, 4))
    _assert_parallel_identical(lambda: run_instance_sweep(quick=True, pairs=4),
                               min_trials=6)


def test_chaos_family():
    designs = (("serial, 1 CRI", "serial", 1),
               ("concurrent, 4 CRIs", "concurrent", 4))
    _assert_parallel_identical(
        lambda: run_chaos(quick=True, drop_rates=(0.0, 0.02),
                          designs=designs, pairs=4),
        min_trials=4)


def test_chaos_extra_tables_survive_parallel_merge():
    """The chaos exhibit's extra dict (retransmits, degradation) must be
    order-independent too -- it is rendered into the .txt artifact."""
    designs = (("concurrent, 4 CRIs", "concurrent", 4),)
    build = lambda: run_chaos(quick=True, drop_rates=(0.0, 0.05),
                              designs=designs, pairs=4)
    with use_engine(Engine(jobs=1)):
        serial = build()
    with use_engine(Engine(jobs=4)):
        parallel = build()
    assert parallel.extra["retransmits"] == serial.extra["retransmits"]
    assert parallel.extra["degradation_ratio"] == serial.extra["degradation_ratio"]
    assert parallel.to_ascii() == serial.to_ascii()


def test_quick_artifacts_byte_identical_under_parallelism():
    """Full quick-mode fig3a on 4 workers reproduces the committed bytes."""
    import pathlib
    committed = pathlib.Path(__file__).resolve().parents[2] / "results" / "fig3a.csv"
    with use_engine(Engine(jobs=4)):
        fig = run_figure3("a", quick=True)
    assert fig.to_csv() == committed.read_text()
