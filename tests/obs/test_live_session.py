"""LiveTelemetry session: lifecycle, narration, snapshot, SIGTERM,
summary."""

import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.engine import Engine, TrialRetryError
from repro.obs.live import LiveTelemetry, load_status, read_events
from repro.obs.live import session as session_module


def _session(tmp_path, **kwargs):
    kwargs.setdefault("experiments", ["figX"])
    return LiveTelemetry(tmp_path / "telemetry", "runZ", **kwargs)


def _engine(tele, jobs=2, **counters):
    """Attach an engine whose counters read as given (no trial runs)."""
    engine = Engine(jobs=jobs, telemetry=tele)
    for name, value in counters.items():
        setattr(engine.counters, name, value)
    return engine


def _kinds(tele):
    return [r["kind"] for r in read_events(tele.dir / "events.jsonl")]


def test_sweep_lifecycle_events_and_final_status(tmp_path):
    tele = _session(tmp_path)
    tele.sweep_start()
    tele.trial_dispatch("d0", 1)
    tele.trial_complete("d0", 1, 5_000_000)
    tele.trial_cache_hit("fn|x=1", 1)
    # the progress block is the engine's, not a tally of the hooks
    _engine(tele, trials=2, cache_misses=1, cache_hits=1,
            busy_ns=5_000_000)
    tele.sweep_finish(True)
    tele.close()
    assert _kinds(tele) == ["sweep.start", "trial.dispatch",
                            "trial.complete", "trial.cache_hit",
                            "sweep.finish"]
    doc = load_status(tele.dir / "status.json")
    assert doc["state"] == "finished"
    assert doc["progress"] == {"planned": 2, "done": 2, "computed": 1,
                               "cache_hits": 1, "shard_skipped": 0,
                               "pct": 100.0}
    assert doc["eta_s"] == 0.0
    assert (tele.dir / "metrics.prom").read_text().startswith("# HELP")


def test_eta_uses_live_costs(tmp_path):
    tele = _session(tmp_path)
    _engine(tele, jobs=1, trials=3, cache_misses=1, busy_ns=2_000_000_000)
    snapshot = tele.snapshot()
    assert snapshot["eta_s"] == 4.0        # 2 left x 2s mean / 1 job
    tele.close()


def test_session_without_an_engine_reports_no_progress(tmp_path):
    tele = _session(tmp_path)
    snapshot = tele.snapshot()
    tele.close()
    assert snapshot["progress"] == {} and snapshot["counters"] == {}
    assert snapshot["eta_s"] is None and snapshot["jobs"] is None


def test_jobs_are_the_engines(tmp_path):
    tele = _session(tmp_path)
    _engine(tele, jobs=3)
    tele.sweep_start()
    tele.close()
    assert read_events(tele.dir / "events.jsonl")[0]["jobs"] == 3
    doc = load_status(tele.dir / "status.json")
    assert doc["jobs"] == doc["counters"]["jobs"] == 3


def test_pool_ticks_build_the_worker_table_only_for_a_write(tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(session_module, "HEARTBEAT_S", 60.0)
    tele = _session(tmp_path)
    _engine(tele)
    busy = SimpleNamespace(index=0, attempt=2, started=time.monotonic(),
                           sent=3, proc=SimpleNamespace(pid=101))
    idle = SimpleNamespace(index=None, attempt=0, started=None, sent=1,
                           proc=SimpleNamespace(pid=102))
    built = []
    table = tele._worker_table
    monkeypatch.setattr(tele, "_worker_table",
                        lambda: built.append(1) or table())
    tele.sweep_start()                   # a forced write builds one
    for _ in range(5):
        tele.pool_tick([busy, idle], ["d0"])   # inside the cadence
    assert len(built) == 1
    tele.heartbeat(force=True)
    tele.close()
    assert len(built) == 2
    rows = load_status(tele.dir / "status.json")["workers"]
    assert rows[0]["busy_s"] >= 0.0
    assert [dict(row, busy_s=0.0) for row in rows] == [
        {"slot": 0, "pid": 101, "trial": "d0", "attempt": 2, "busy_s": 0.0,
         "sent": 3},
        {"slot": 1, "pid": 102, "trial": None, "attempt": 0, "busy_s": 0.0,
         "sent": 1},
    ]


@pytest.mark.parametrize("exc,reason,finish", [
    (TrialRetryError(0, 1, "worker died"), "retry-exhaustion", True),
    (KeyboardInterrupt(), "sigint", False),
    (RuntimeError("bug"), "crash", True),
])
def test_sweep_narrates_an_escaping_exception(tmp_path, exc, reason, finish):
    tele = _session(tmp_path)
    with pytest.raises(type(exc)):
        with tele.sweep():
            tele.trial_dispatch("d0", 1)
            raise exc
    assert tele.log._handle.closed
    records = read_events(tele.dir / "events.jsonl")
    expected = ["sweep.start", "trial.dispatch", "postmortem"]
    assert [r["kind"] for r in records] == \
        expected + (["sweep.finish"] if finish else [])
    assert records[2]["reason"] == reason
    if finish:
        assert records[-1]["ok"] is False
    doc = load_status(tele.dir / "status.json")
    assert doc["state"] == ("killed" if reason == "sigint" else "failed")
    assert doc["postmortem"] == "postmortem"
    assert (tele.dir / "postmortem" / "traceback.txt").exists()


def test_sweep_after_an_ok_finish_ends_in_the_postmortem(tmp_path):
    tele = _session(tmp_path)
    with pytest.raises(OSError):
        with tele.sweep():
            tele.sweep_finish(True)
            raise OSError("disk full")
    assert _kinds(tele) == ["sweep.start", "sweep.finish", "postmortem"]
    assert load_status(tele.dir / "status.json")["state"] == "failed"


def test_sweep_routes_sigterm_and_passes_its_exit_through(tmp_path):
    tele = _session(tmp_path)
    with pytest.raises(SystemExit) as info:
        with tele.sweep():
            assert signal.getsignal(signal.SIGTERM) == tele.handle_sigterm
            tele.handle_sigterm(signal.SIGTERM, None)
    assert info.value.code == 143
    # restored before the log closes: a late SIGTERM never hits a closed log
    assert signal.getsignal(signal.SIGTERM) != tele.handle_sigterm
    assert tele.log._handle.closed
    assert _kinds(tele) == ["sweep.start", "postmortem"]
    assert [bundle.name for bundle in tele.recorder.dumps] == ["postmortem"]
    assert load_status(tele.dir / "status.json")["state"] == "killed"


def test_a_clean_sweep_only_closes_the_log(tmp_path):
    tele = _session(tmp_path)
    with tele.sweep():
        tele.sweep_finish(True)
    assert tele.log._handle.closed
    assert _kinds(tele) == ["sweep.start", "sweep.finish"]
    assert load_status(tele.dir / "status.json")["state"] == "finished"


def test_postmortem_marks_failed_and_heartbeats(tmp_path):
    tele = _session(tmp_path)
    tele.sweep_start()
    bundle = tele.postmortem("retry-exhaustion", RuntimeError("x"))
    tele.close()
    assert bundle.name == "postmortem"
    assert (bundle / "traceback.txt").exists()
    doc = load_status(tele.dir / "status.json")
    assert doc["state"] == "failed"
    assert doc["postmortem"] == "postmortem"
    kinds = [r["kind"] for r in read_events(tele.dir / "events.jsonl")]
    assert kinds[-1] == "postmortem"


def test_sigterm_dumps_bundle_and_exits_143(tmp_path):
    tele = _session(tmp_path)
    tele.sweep_start()
    tele.install_sigterm()
    try:
        assert signal.getsignal(signal.SIGTERM) == tele.handle_sigterm
        with pytest.raises(SystemExit) as info:
            tele.handle_sigterm(signal.SIGTERM, None)
        assert info.value.code == 143
    finally:
        tele.restore_sigterm()
        tele.close()
    assert (tele.dir / "postmortem").is_dir()
    assert load_status(tele.dir / "status.json")["state"] == "killed"
    assert signal.getsignal(signal.SIGTERM) != tele.handle_sigterm


def test_inherited_handler_in_forked_child_stays_silent(tmp_path):
    # timeout/kill signal the whole process group, and forked pool
    # workers inherit the handler + open file handles: a child must die
    # by plain SIGTERM without narrating into the parent's files
    tele = _session(tmp_path)
    tele.sweep_start()
    pid = os.fork()
    if pid == 0:
        try:
            tele.handle_sigterm(signal.SIGTERM, None)
        finally:
            os._exit(99)    # unreachable unless the guard failed
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGTERM
    tele.close()
    assert not (tele.dir / "postmortem").exists()
    kinds = [r["kind"] for r in read_events(tele.dir / "events.jsonl")]
    assert kinds == ["sweep.start"]


def test_summary_is_the_manifest_block(tmp_path):
    tele = _session(tmp_path)
    tele.sweep_start()
    tele.trial_dispatch("d0", 1)
    tele.trial_complete("d0", 1, 1_000_000)
    tele.sweep_finish(True)
    tele.close()
    block = tele.summary()
    assert block == {
        "dir": "telemetry",
        "events_total": 4,
        "events": {"sweep.finish": 1, "sweep.start": 1,
                   "trial.complete": 1, "trial.dispatch": 1},
        "postmortem": None,
    }


def test_worker_and_cache_events(tmp_path):
    tele = _session(tmp_path)
    tele.trial_retry("d0", 1, "worker died")
    tele.trial_timeout("d1", pid=7)
    tele.worker_death("d0", pid=7)
    tele.worker_respawn(pid=8)
    tele.cache_quarantine(3)
    tele.close()
    records = read_events(tele.dir / "events.jsonl")
    by_kind = {r["kind"]: r for r in records}
    assert by_kind["trial.retry"]["reason"] == "worker died"
    assert by_kind["trial.timeout"]["pid"] == 7
    assert by_kind["worker.death"]["k"] == "d0"
    assert by_kind["worker.respawn"]["pid"] == 8
    assert by_kind["cache.quarantine"]["entries"] == 3
