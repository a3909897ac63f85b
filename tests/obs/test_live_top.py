"""``repro top`` rendering: frames, ETA formatting, directory resolve."""

import io
import json

from repro.obs.live import render_frame, resolve_dir, run_top, write_status
from repro.obs.live.top import fmt_eta, progress_bar

DOC = {
    "schema": 1, "ts": 1000.0, "pid": 42, "run": "cafe01", "jobs": 2,
    "state": "running", "experiments": ["fig3a"], "elapsed_s": 3.5,
    "progress": {"planned": 10, "done": 4, "pct": 40.0, "computed": 3,
                 "cache_hits": 1},
    "eta_s": 12.0,
    "workers": [{"slot": 0, "pid": 101, "trial": "abc123", "attempt": 2,
                 "busy_s": 1.5, "sent": 3},
                {"slot": 1, "pid": 102, "trial": None, "attempt": 0,
                 "busy_s": 0.0, "sent": 2}],
    "counters": {"retries": 2, "worker_deaths": 1, "respawns": 1},
    "events": {"total": 17, "by_kind": {"trial.dispatch": 7}},
    "recent": [{"seq": 16, "kind": "trial.complete", "k": "abc123"}],
    "postmortem": None,
}


def test_frame_shows_progress_workers_chaos_and_events():
    frame = render_frame(DOC, now=1001.0)
    assert "run cafe01" in frame and "state=running" in frame
    assert "4/10 trials" in frame and "40.0%" in frame
    assert "eta 12.0s" in frame
    assert "abc123" in frame and "idle" in frame
    assert "retries=2" in frame and "worker_deaths=1" in frame
    assert "#16" in frame and "trial.complete" in frame
    assert "STALE" not in frame


def test_frame_flags_stale_running_heartbeat():
    frame = render_frame(DOC, now=1000.0 + 120)
    assert "STALE" in frame and "120s ago" in frame
    finished = dict(DOC, state="finished")
    assert "STALE" not in render_frame(finished, now=1000.0 + 120)


def test_frame_without_status_yet():
    assert "waiting for status.json" in render_frame(None)


def test_frame_mentions_postmortem_bundle():
    frame = render_frame(dict(DOC, state="failed", postmortem="postmortem"),
                         now=1001.0)
    assert "postmortem bundle: postmortem/" in frame


def test_fmt_eta_scales():
    assert fmt_eta(None) == "--"
    assert fmt_eta(5.0) == "5.0s"
    assert fmt_eta(90) == "1.5m"
    assert fmt_eta(7200) == "2.0h"


def test_progress_bar_bounds():
    assert progress_bar(0, 10, width=4) == "[....]"
    assert progress_bar(10, 10, width=4) == "[####]"
    assert progress_bar(5, 10, width=4) == "[##..]"
    assert progress_bar(3, 0, width=4) == "[----]"


def test_resolve_dir_accepts_run_dir_or_telemetry_dir(tmp_path):
    telemetry = tmp_path / "telemetry"
    telemetry.mkdir()
    write_status(telemetry / "status.json", {"state": "running"})
    assert resolve_dir(telemetry) == telemetry
    assert resolve_dir(tmp_path) == telemetry
    # unknown directories resolve to themselves (run_top reports waiting)
    assert resolve_dir(tmp_path / "nowhere") == tmp_path / "nowhere"


def test_run_top_once_json_prints_raw_document(tmp_path):
    write_status(tmp_path / "status.json",
                 {"state": "finished", "progress": {"planned": 2, "done": 2}})
    out = io.StringIO()
    assert run_top(tmp_path, once=True, as_json=True, out=out) == 0
    doc = json.loads(out.getvalue())
    assert doc["state"] == "finished" and doc["progress"]["done"] == 2


def test_run_top_once_renders_frame_and_exit_codes(tmp_path):
    out = io.StringIO()
    assert run_top(tmp_path, once=True, out=out) == 1   # no heartbeat ever
    assert "waiting" in out.getvalue()
    write_status(tmp_path / "status.json",
                 {"state": "running", "run": "r1", "progress": {}})
    out = io.StringIO()
    assert run_top(tmp_path, once=True, out=out) == 0
    assert "run r1" in out.getvalue()


def test_run_top_loop_stops_when_run_finishes(tmp_path):
    write_status(tmp_path / "status.json",
                 {"state": "finished", "progress": {}})
    out = io.StringIO()
    # no frames bound needed: a non-running state ends the loop
    assert run_top(tmp_path, interval_s=0.01, out=out) == 0
