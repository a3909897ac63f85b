"""The telemetry linter must pass real runs and catch seeded corruption.

Drives :mod:`tools.lint_events` against telemetry directories produced
by a genuine :class:`~repro.obs.live.LiveTelemetry` session, then
corrupts them one defect at a time -- broken seq, unknown kind,
counter/event disagreement, counter keys that drift from the
:class:`~repro.engine.engine.EngineCounters` declaration, a progress
block or ETA its counters do not give, a terminal state the log's last
word contradicts, malformed prometheus sample -- and asserts
each corruption is the *only* thing the linter flags.
"""

import json
import pathlib
import sys

import pytest

from repro.engine import (Engine, EngineCounters, TrialCache, TrialSpec,
                          TrialTask, trial)
from repro.obs.live import LiveTelemetry

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from lint_events import (_check_counter_agreement, lint_dir,  # noqa: E402
                         lint_events_file, lint_prom_file, lint_status_file,
                         main)


def _finished_run(tmp_path, name="telemetry"):
    tele = LiveTelemetry(tmp_path / name, "runL", experiments=["figX"],
                         jobs=2)
    tele.sweep_start()
    tele.trial_dispatch("d0", 1)
    tele.trial_retry("d0", 1, "worker died")
    tele.worker_death("d0", pid=11)
    tele.worker_respawn(pid=12)
    tele.trial_dispatch("d0", 2)
    tele.trial_complete("d0", 2, 1_000_000)
    tele.trial_dispatch("d1", 1)
    tele.trial_complete("d1", 1, 2_000_000)
    tele.sweep_finish(True)
    tele.close()
    return tele.dir


def test_valid_run_dir_lints_clean(tmp_path):
    telemetry = _finished_run(tmp_path)
    problems: list[str] = []
    summary = lint_dir(telemetry, problems)
    assert problems == []
    assert "10 events" in summary and "state=finished" in summary
    assert main([str(tmp_path)]) == 0     # resolves the parent run dir too


def _rewrite_events(telemetry, mutate):
    path = telemetry / "events.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    mutate(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_catches_broken_seq(tmp_path):
    telemetry = _finished_run(tmp_path)
    path = _rewrite_events(telemetry,
                           lambda rs: rs[3].update(seq=99))
    problems: list[str] = []
    lint_events_file(path, problems)
    assert any("contiguous" in p for p in problems)


def test_catches_unknown_kind_and_missing_fingerprint(tmp_path):
    telemetry = _finished_run(tmp_path)

    def mutate(records):
        records[2]["kind"] = "trial.teleport"
        del records[1]["k"]         # a trial.dispatch without its fingerprint

    path = _rewrite_events(telemetry, mutate)
    problems: list[str] = []
    lint_events_file(path, problems)
    assert any("unknown kind 'trial.teleport'" in p for p in problems)
    assert any("without fingerprint k" in p for p in problems)


def test_catches_counter_event_disagreement(tmp_path):
    telemetry = _finished_run(tmp_path)

    def mutate(records):
        # no engine was attached, so graft the counters block a real
        # run's sweep.finish carries -- with a deliberately wrong count
        assert records[-1]["kind"] == "sweep.finish"
        counters = EngineCounters(cache_misses=2, retries=1,
                                  worker_deaths=7, respawns=1)
        records[-1]["counters"] = counters.deterministic()

    path = _rewrite_events(telemetry, mutate)
    problems: list[str] = []
    records = [json.loads(line) for line in path.read_text().splitlines()]
    _check_counter_agreement(path, records, problems)
    assert problems == [f"{path}: sweep.finish counter worker_deaths=7 "
                        "but 1 worker.death event(s)"]


def _engine_run(tmp_path):
    """A finished session with an (idle) engine attached."""
    tele = LiveTelemetry(tmp_path / "telemetry", "runE", jobs=1)
    Engine(telemetry=tele)
    tele.sweep_start()
    tele.sweep_finish(True)
    tele.close()
    return tele.dir


def test_catches_sweep_finish_counter_key_drift(tmp_path):
    telemetry = _engine_run(tmp_path)
    problems: list[str] = []
    lint_dir(telemetry, problems)
    assert problems == []

    def mutate(records):
        del records[-1]["counters"]["batches"]
        records[-1]["counters"]["wall_ns"] = 5

    path = _rewrite_events(telemetry, mutate)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    _check_counter_agreement(path, records, problems)
    assert problems == [f"{path}: sweep.finish: counter keys differ from "
                        "the declaration (missing ['batches'], extra "
                        "['wall_ns'])"]


def test_catches_status_counter_key_drift(tmp_path):
    telemetry = _engine_run(tmp_path)
    path = telemetry / "status.json"
    doc = json.loads(path.read_text())
    del doc["counters"]["utilization"]
    path.write_text(json.dumps(doc))
    problems: list[str] = []
    lint_status_file(path, [], problems)
    assert problems == [f"{path}: counters: counter keys differ from the "
                        "declaration (missing ['utilization'], extra [])"]


@trial("linttest.echo")
def _echo(x, seed, **_extra):
    """Deterministic toy trial for the sweep the agreement tests doctor."""
    return float(x) + seed


def _sweep_run(tmp_path):
    """A finished sweep with one cache hit, two shard skips and one
    computed trial, narrated by a real engine."""
    spec = TrialSpec.make("linttest.echo")
    tasks = [TrialTask(spec, x, 5) for x in range(4)]
    Engine(cache=TrialCache(tmp_path / "cache")).run_tasks(tasks[:1])
    tele = LiveTelemetry(tmp_path / "telemetry", "runS", jobs=1)
    engine = Engine(cache=TrialCache(tmp_path / "cache"), shard=(1, 2),
                    telemetry=tele)
    with tele.sweep():
        engine.run_tasks(tasks)
        tele.sweep_finish(True)
    c = engine.counters
    assert (c.cache_hits, c.shard_skipped, c.cache_misses) == (1, 2, 1)
    problems: list[str] = []
    lint_dir(tele.dir, problems)
    assert problems == []
    return tele.dir


def _agreement_problems(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    problems: list[str] = []
    _check_counter_agreement(path, records, problems)
    return problems


@pytest.mark.parametrize("field,expected", [
    ("cache_hits", "cache_hits=2 but 1 trial.cache_hit event(s)"),
    ("shard_skipped", "shard_skipped=3 but 2 trial.shard_skip event(s)"),
    ("uncacheable",
     "cache_misses + uncacheable=2 but 1 trial.complete event(s)"),
])
def test_catches_a_resolution_counter_the_log_disagrees_with(
        tmp_path, field, expected):
    telemetry = _sweep_run(tmp_path)
    path = _rewrite_events(
        telemetry, lambda rs: rs[-1]["counters"].update(
            {field: rs[-1]["counters"][field] + 1}))
    assert _agreement_problems(path) == \
        [f"{path}: sweep.finish counter {expected}"]


def test_catches_corrupt_entries_the_quarantine_events_disagree_with(
        tmp_path):
    telemetry = _sweep_run(tmp_path)

    def mutate(records):
        # a quarantine of two entries the counters never saw
        finish = records.pop()
        records.append({**finish, "kind": "cache.quarantine",
                        "entries": 2})
        records.append({**finish, "seq": finish["seq"] + 1})
        del records[-2]["ok"], records[-2]["counters"]

    path = _rewrite_events(telemetry, mutate)
    assert _agreement_problems(path) == [
        f"{path}: sweep.finish counter corrupt=0 but 2 entries over "
        "cache.quarantine events"]
    problems: list[str] = []
    lint_events_file(path, problems)
    assert problems == _agreement_problems(path)


def test_catches_a_progress_block_its_counters_do_not_give(tmp_path):
    telemetry = _sweep_run(tmp_path)
    path = telemetry / "status.json"
    doc = json.loads(path.read_text())
    assert doc["progress"]["done"] == doc["progress"]["planned"] == 4
    doc["progress"]["done"] = 3
    path.write_text(json.dumps(doc))
    problems: list[str] = []
    lint_status_file(path, [], problems)
    assert len(problems) == 1
    assert problems[0].startswith(f"{path}: progress {doc['progress']} "
                                  "but its counters give ")


def test_catches_an_eta_its_counters_do_not_give(tmp_path):
    telemetry = _sweep_run(tmp_path)
    path = telemetry / "status.json"
    doc = json.loads(path.read_text())
    assert doc["eta_s"] == 0.0
    doc["eta_s"] = 1.5
    path.write_text(json.dumps(doc))
    problems: list[str] = []
    lint_status_file(path, [], problems)
    assert problems == [f"{path}: eta_s 1.5 but its counters give 0.0"]


def test_tolerates_torn_final_line_only(tmp_path):
    telemetry = _finished_run(tmp_path)
    path = telemetry / "events.jsonl"
    # kill -9 mid-append legally truncates the last line
    path.write_text(path.read_text() + '{"schema": 1, "seq"')
    problems: list[str] = []
    records = lint_events_file(path, problems)
    assert problems == [] and len(records) == 10
    # ...but a torn line mid-file is corruption
    lines = path.read_text().splitlines()
    lines[4] = lines[4][:10]
    path.write_text("".join(line + "\n" for line in lines))
    problems = []
    lint_events_file(path, problems)
    assert any("unparseable line mid-file" in p for p in problems)


def test_catches_stale_final_status_total(tmp_path):
    telemetry = _finished_run(tmp_path)
    status_path = telemetry / "status.json"
    doc = json.loads(status_path.read_text())
    doc["events"]["total"] = 3
    status_path.write_text(json.dumps(doc))
    problems: list[str] = []
    records = lint_events_file(telemetry / "events.jsonl", [])
    lint_status_file(status_path, records, problems)
    assert any("reports 3 events but the log holds 10" in p
               for p in problems)


def test_catches_a_status_that_disagrees_with_the_logs_last_word(tmp_path):
    # a failed run whose log still ends in an ok sweep.finish: what a
    # manifest write failing after sweep.finish used to leave behind
    telemetry = _finished_run(tmp_path)
    status_path = telemetry / "status.json"
    doc = json.loads(status_path.read_text())
    doc["state"] = "failed"
    status_path.write_text(json.dumps(doc))
    problems: list[str] = []
    records = lint_events_file(telemetry / "events.jsonl", [])
    lint_status_file(status_path, records, problems)
    assert problems == [f"{status_path}: state failed but the log holds "
                        "neither a postmortem nor a sweep.finish with "
                        "ok: false"]
    # and the converse: a finished status after a failed finish
    doc["state"] = "finished"
    status_path.write_text(json.dumps(doc))
    records[-1]["ok"] = False
    problems = []
    lint_status_file(status_path, records, problems)
    assert problems == [f"{status_path}: state finished but the log's last "
                        "sweep.finish does not say ok: true"]


def test_catches_bad_prom_sample_and_untyped_metric(tmp_path):
    telemetry = _finished_run(tmp_path)
    prom = telemetry / "metrics.prom"
    prom.write_text(prom.read_text()
                    + "Bad-Name{x=1\n"
                    + "repro_untyped_total 3\n")
    problems: list[str] = []
    lint_prom_file(prom, problems)
    assert any("unparseable sample" in p for p in problems)
    assert any("repro_untyped_total has no preceding # TYPE" in p
               for p in problems)


def test_main_exit_codes(tmp_path):
    assert main([]) == 2
    telemetry = _finished_run(tmp_path)
    _rewrite_events(telemetry, lambda rs: rs[1].update(schema=99))
    assert main([str(telemetry)]) == 1
