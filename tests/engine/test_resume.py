"""Crash and rerun: finished trials replay from the trial cache, so a
rerun of an interrupted sweep gives byte-identical artifacts."""

import filecmp
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.engine import Engine, TrialCache, TrialSpec, TrialTask, trial
from repro.obs.live import EVENTS_NAME, STATUS_NAME, read_events


@trial("resumetest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the rerun tests."""
    return float(x) * scale + seed


def _tasks(xs, seed=5, **params):
    spec = TrialSpec.make("resumetest.echo", **params)
    return [TrialTask(spec, x, seed) for x in xs]


def test_resume_computes_only_the_missing_trials(tmp_path):
    # "crash" after two trials: the cache holds half of the sweep
    Engine(cache=TrialCache(tmp_path / "cache")).run_tasks(_tasks([0, 1]))

    rerun = Engine(cache=TrialCache(tmp_path / "cache"))
    values = rerun.run_tasks(_tasks(range(4)))
    assert values == Engine().run_tasks(_tasks(range(4)))
    assert rerun.counters.trials == 4
    assert rerun.counters.cache_hits == 2
    assert rerun.counters.cache_misses == 2


# ----------------------------------------------------------------------
# Whole-process crash drills: kill a real `repro run` mid-sweep, then a
# rerun of the same command must finish with artifacts byte-identical to
# a clean run, its missing trials computed and the rest replayed.

_REPO = pathlib.Path(__file__).resolve().parents[2]


def _cli_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    env["REPRO_TRIAL_CACHE"] = str(tmp_path / "shared-cache")
    return env


def _run_cli(args, env):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def _clean_reference(tmp_path, env):
    out = tmp_path / "clean"
    result = _run_cli(["run", "ext-modes", "--no-cache",
                       "--out", str(out)], env)
    assert result.returncode == 0, result.stderr
    return out / "ext-modes.csv"


def _worker_pids(out):
    """Pool worker pids named by a run's ``trial.dispatch`` events."""
    events = read_events(out / "telemetry" / EVENTS_NAME)
    return {e["pid"] for e in events
            if e["kind"] == "trial.dispatch" and "pid" in e}


def _exited(pid):
    """No process ``pid`` left, or only its zombie (an orphan's exit
    status waits for init, which need not reap it promptly)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _completed(out):
    """How many ``trial.complete`` events a run has logged so far."""
    return sum(e["kind"] == "trial.complete"
               for e in read_events(out / "telemetry" / EVENTS_NAME))


def _status(out):
    return json.loads((out / "telemetry" / STATUS_NAME).read_text())


def _interrupt_mid_sweep(tmp_path, env, sig):
    """Send ``sig`` to a ``--jobs 2`` run on its first ``trial.complete``
    and check that it died of the signal before finishing its sweep."""
    out = tmp_path / "victim"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "ext-modes",
         "--jobs", "2", "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while not _completed(out) and proc.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    proc.send_signal(sig)
    assert proc.wait(timeout=60) == -sig
    assert _status(out)["state"] != "finished"
    return out


def _assert_rerun_completes(env, out, reference):
    # every trial the victim reported complete was in the cache first
    finished = _completed(out)
    result = _run_cli(["run", "ext-modes", "--jobs", "2",
                       "--out", str(out)], env)
    assert result.returncode == 0, result.stderr
    assert filecmp.cmp(out / "ext-modes.csv", reference, shallow=False)
    engine = json.loads((out / "manifest.json").read_text())["engine"]
    assert engine["cache_hits"] + engine["cache_misses"] == engine["trials"]
    assert engine["cache_hits"] >= finished
    assert engine["cache_misses"] >= 1      # the victim left work undone


def test_sigkill_mid_sweep_then_resume_byte_identical(tmp_path):
    env = _cli_env(tmp_path)
    reference = _clean_reference(tmp_path, env)
    out = _interrupt_mid_sweep(tmp_path, env, signal.SIGKILL)
    # the killed parent's pool workers must not outlive it
    workers = _worker_pids(out)
    assert workers
    deadline = time.monotonic() + 10
    while not all(_exited(pid) for pid in workers) \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    assert [pid for pid in workers if not _exited(pid)] == []
    _assert_rerun_completes(env, out, reference)


def test_sigint_mid_sweep_then_resume_byte_identical(tmp_path):
    env = _cli_env(tmp_path)
    reference = _clean_reference(tmp_path, env)
    out = _interrupt_mid_sweep(tmp_path, env, signal.SIGINT)
    # Ctrl-C narrates itself like SIGTERM: killed, with a postmortem
    assert _status(out)["state"] == "killed"
    bundle = out / "telemetry" / "postmortem"
    assert json.loads((bundle / "postmortem.json").read_text())["reason"] \
        == "sigint"
    assert (bundle / "ring.jsonl").is_file()
    _assert_rerun_completes(env, out, reference)


def test_concurrent_runs_share_one_cache(tmp_path):
    # two simultaneous invocations on one $REPRO_TRIAL_CACHE: the locked
    # cache writes must not corrupt either run's artifacts
    env = _cli_env(tmp_path)
    reference = _clean_reference(tmp_path, env)
    outs = [tmp_path / "a", tmp_path / "b"]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "ext-modes",
         "--jobs", "2", "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for out in outs]
    for proc in procs:
        assert proc.wait(timeout=300) == 0
    for out in outs:
        assert filecmp.cmp(out / "ext-modes.csv", reference, shallow=False)
