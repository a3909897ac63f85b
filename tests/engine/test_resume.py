"""Crash-and-resume: journaled runs replay to byte-identical artifacts."""

import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.engine import Engine, SweepJournal, TrialCache, TrialSpec, TrialTask, trial
from repro.obs.live import EVENTS_NAME, read_events


@trial("resumetest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the resume tests."""
    return float(x) * scale + seed


def _tasks(xs, seed=5, **params):
    spec = TrialSpec.make("resumetest.echo", **params)
    return [TrialTask(spec, x, seed) for x in xs]


def _journal(tmp_path, resume=False):
    return SweepJournal.open(tmp_path / "journal", ["resumetest"],
                             resume=resume)


def test_resume_replays_from_journal_alone(tmp_path):
    first = Engine(journal=_journal(tmp_path))
    values = first.run_tasks(_tasks(range(4)))

    # a "restarted" process: fresh engine, no cache, journal reopened
    second = Engine(journal=_journal(tmp_path, resume=True))
    assert second.run_tasks(_tasks(range(4))) == values
    assert second.counters.resumed == 4
    assert second.counters.cache_misses == 0


def test_resume_computes_only_the_missing_trials(tmp_path):
    first = Engine(journal=_journal(tmp_path))
    first.run_tasks(_tasks([0, 1]))         # "crash" after two trials

    second = Engine(journal=_journal(tmp_path, resume=True))
    values = second.run_tasks(_tasks(range(4)))
    assert values == Engine().run_tasks(_tasks(range(4)))
    assert second.counters.resumed == 2
    assert second.counters.cache_misses == 2


def test_cache_hits_are_journaled_for_later_resumes(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    Engine(cache=cache).run_tasks(_tasks(range(3)))   # warm the cache only

    warm = Engine(cache=TrialCache(tmp_path / "cache"),
                  journal=_journal(tmp_path))
    warm.run_tasks(_tasks(range(3)))
    assert warm.counters.cache_hits == 3

    resumed = Engine(journal=_journal(tmp_path, resume=True))
    resumed.run_tasks(_tasks(range(3)))     # journal now answers alone
    assert resumed.counters.resumed == 3


# ----------------------------------------------------------------------
# Whole-process crash drills: kill a real `repro run` mid-sweep, then
# `--resume` must finish with artifacts byte-identical to a clean run.

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
    result = _run_cli(["run", "ext-modes", "--no-cache", "--no-journal",
                       "--out", str(out)], env)
    assert result.returncode == 0, result.stderr
    return (out / "ext-modes.csv").read_bytes()


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


def _interrupt_mid_sweep(tmp_path, env, sig):
    out = tmp_path / "victim"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "ext-modes",
         "--jobs", "2", "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while not _worker_pids(out) and proc.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.05)                     # wait for the pool to start
    time.sleep(0.3)                          # let some trials journal
    if proc.poll() is None:
        proc.send_signal(sig)
    proc.wait(timeout=60)
    return out


def _assert_resume_completes(tmp_path, env, out, reference):
    result = _run_cli(["run", "ext-modes", "--jobs", "2", "--resume",
                       "--out", str(out)], env)
    assert result.returncode == 0, result.stderr
    assert (out / "ext-modes.csv").read_bytes() == reference
    assert (out / "manifest.json").exists()


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
    _assert_resume_completes(tmp_path, env, out, reference)


def test_sigint_mid_sweep_then_resume_byte_identical(tmp_path):
    env = _cli_env(tmp_path)
    reference = _clean_reference(tmp_path, env)
    out = _interrupt_mid_sweep(tmp_path, env, signal.SIGINT)
    _assert_resume_completes(tmp_path, env, out, reference)


def test_concurrent_runs_share_one_cache(tmp_path):
    # two simultaneous invocations on one $REPRO_TRIAL_CACHE: the locked
    # cache/journal writes must not corrupt either run's artifacts
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
        assert (out / "ext-modes.csv").read_bytes() == reference
