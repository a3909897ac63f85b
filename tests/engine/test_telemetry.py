"""Engine-level telemetry: event emission, determinism, ETA costs."""

import collections
import time

from repro.engine import Engine, TrialCache, TrialSpec, TrialTask, trial
from repro.obs.live import (LiveTelemetry, canonical_line, load_status,
                            read_events, trial_digest)


@trial("teletest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the telemetry tests."""
    return float(x) * scale + seed


@trial("teletest.nap")
def _nap(x, seed, **_extra):
    """A toy trial slow enough that its host cost shows in the ETA."""
    time.sleep(0.02)
    return float(x)


def _tasks(xs, seed=5, fn="teletest.echo", **params):
    spec = TrialSpec.make(fn, **params)
    return [TrialTask(spec, x, seed) for x in xs]


def _session(tmp_path, name="telemetry", jobs=1):
    return LiveTelemetry(tmp_path / name, "run1", experiments=["teletest"],
                         jobs=jobs)


def _events(tele):
    return read_events(tele.dir / "events.jsonl")


def test_serial_run_emits_dispatch_and_complete_per_trial(tmp_path):
    tele = _session(tmp_path)
    engine = Engine(telemetry=tele)
    assert engine.run_tasks(_tasks([1, 2, 3])) == [6.0, 7.0, 8.0]
    tele.close()
    records = _events(tele)
    kinds = collections.Counter(r["kind"] for r in records)
    assert kinds == {"trial.dispatch": 3, "trial.complete": 3}
    # dispatch precedes completion for every fingerprint, with attempt 1
    order = [(r["kind"], r["k"]) for r in records]
    for k in {r["k"] for r in records}:
        assert order.index(("trial.dispatch", k)) \
            < order.index(("trial.complete", k))
    assert all(r["attempt"] == 1 for r in records)
    progress = tele.snapshot()["progress"]
    assert progress["planned"] == 3 and progress["done"] == 3


def test_cache_hits_emit_their_own_kind(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    cold = _session(tmp_path, "cold")
    Engine(cache=cache, telemetry=cold).run_tasks(_tasks([1, 2]))
    cold.close()

    warm = _session(tmp_path, "warm")
    Engine(cache=TrialCache(tmp_path / "cache"),
           telemetry=warm).run_tasks(_tasks([1, 2]))
    warm.close()
    warm_kinds = collections.Counter(r["kind"] for r in _events(warm))
    assert warm_kinds == {"trial.cache_hit": 2}


def test_shard_skip_events_carry_the_shared_fingerprint(tmp_path):
    tele = _session(tmp_path)
    engine = Engine(cache=TrialCache(tmp_path / "cache"), shard=(1, 2),
                    telemetry=tele)
    tasks = _tasks([1, 2, 3, 4])
    engine.run_tasks(tasks)
    tele.close()
    kinds = collections.Counter(r["kind"] for r in _events(tele))
    assert kinds["trial.shard_skip"] == 2
    skipped = {r["k"] for r in _events(tele)
               if r["kind"] == "trial.shard_skip"}
    # the fingerprints join against the tasks' cache identities
    all_digests = {trial_digest(t.cache_text(), i)
                   for i, t in enumerate(tasks)}
    assert skipped <= all_digests


def test_event_contents_deterministic_across_serial_runs(tmp_path):
    lines = []
    for name in ("a", "b"):
        tele = _session(tmp_path, name)
        Engine(telemetry=tele).run_tasks(_tasks(range(5)))
        tele.sweep_finish(True)
        tele.close()
        lines.append([canonical_line(r) for r in _events(tele)])
    # byte-identical event streams once host fields are stripped
    assert lines[0] == lines[1]
    assert len(lines[0]) == 11          # 5 dispatch + 5 complete + finish


def test_parallel_run_same_canonical_multiset_as_serial(tmp_path):
    serial = _session(tmp_path, "serial", jobs=1)
    Engine(jobs=1, telemetry=serial).run_tasks(_tasks(range(6)))
    serial.close()
    parallel = _session(tmp_path, "parallel", jobs=3)
    Engine(jobs=3, telemetry=parallel).run_tasks(_tasks(range(6)))
    parallel.close()

    def canon(tele):
        # seq is the *order* causality key; order is host scheduling
        # under --jobs, so the cross-mode contract is the multiset of
        # order-free canonical lines (plus per-kind counts, below)
        lines = [dict(r, seq=0) for r in _events(tele)]
        return sorted(canonical_line(r) for r in lines)

    assert canon(serial) == canon(parallel)
    counts = [collections.Counter(r["kind"] for r in _events(t))
              for t in (serial, parallel)]
    assert counts[0] == counts[1]


def test_final_status_reflects_engine_counters(tmp_path):
    tele = _session(tmp_path)
    engine = Engine(cache=TrialCache(tmp_path / "cache"), telemetry=tele)
    engine.run_tasks(_tasks([1, 2, 2, 3]))
    tele.sweep_finish(True)
    tele.close()
    doc = load_status(tele.dir / "status.json")
    assert doc["state"] == "finished"
    assert doc["counters"]["trials"] == engine.counters.trials
    assert doc["progress"]["done"] == 3 == doc["progress"]["planned"]
    assert doc["events"]["total"] == len(_events(tele))


def test_rerun_eta_comes_from_its_own_computed_trials(tmp_path):
    Engine(cache=TrialCache(tmp_path / "cache")).run_tasks(_tasks([1, 2]))

    tele = _session(tmp_path)
    engine = Engine(cache=TrialCache(tmp_path / "cache"), telemetry=tele)
    # nothing seeded from earlier runs
    assert tele.snapshot()["progress"]["computed"] == 0
    engine.run_tasks(_tasks([1, 2, 3]))
    tele.close()
    assert engine.counters.cache_hits == 2
    # one cost sample: the one trial this run computed
    assert tele.snapshot()["progress"]["computed"] == 1
    completes = [r for r in _events(tele) if r["kind"] == "trial.complete"]
    assert [r["ns"] for r in completes] == [engine.counters.busy_ns]
    assert engine.counters.busy_ns > 0


def test_mid_run_eta_is_remaining_times_the_logged_mean_cost(tmp_path):
    tele = _session(tmp_path, jobs=2)
    engine = Engine(jobs=2, telemetry=tele)
    seen = []
    complete = tele.trial_complete

    def complete_then_look(digest, attempt, busy_ns):
        complete(digest, attempt, busy_ns)
        seen.append(tele.snapshot())

    tele.trial_complete = complete_then_look
    engine.run_tasks(_tasks(range(4), fn="teletest.nap"))
    tele.close()
    costs = [r["ns"] for r in _events(tele) if r["kind"] == "trial.complete"]
    assert len(seen) == len(costs) == 4
    for n, snapshot in enumerate(seen, start=1):
        remaining = 4 - n
        mean_s = sum(costs[:n]) / n / 1e9
        assert snapshot["progress"]["done"] == n
        assert snapshot["eta_s"] == round(remaining * mean_s / 2, 3)
    assert seen[0]["eta_s"] > 0 and seen[-1]["eta_s"] == 0.0


def test_engine_without_telemetry_unchanged(tmp_path):
    engine = Engine()
    assert engine.telemetry is None
    assert engine.run_tasks(_tasks([1])) == [6.0]
