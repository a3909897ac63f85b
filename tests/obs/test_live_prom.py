"""Prometheus textfile rendering: names and typing."""

import re

from repro.obs.live import metric_name, render_prom

_SAMPLE = re.compile(r"^[a-z_][a-z0-9_]*(\{[^{}]*\})? \S+$")

SNAPSHOT = {
    "run": "abc123", "state": "running", "jobs": 2,
    "progress": {"planned": 10, "done": 4, "pct": 40.0},
    "eta_s": 2.5,
    "counters": {"trials": 10, "retries": 1, "utilization": 0.75,
                 "workers": {"ignored": 1}},
    "workers": [{"slot": 0, "busy_s": 1.25}, {"slot": 1, "busy_s": 0.0}],
}


def _samples(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


def test_every_sample_line_parses():
    text = render_prom(SNAPSHOT)
    assert text.endswith("\n")
    for line in _samples(text):
        assert _SAMPLE.match(line), line


def test_run_info_progress_eta_and_workers_exposed():
    text = render_prom(SNAPSHOT)
    assert 'repro_run_info{run="abc123",state="running"} 1' in text
    assert "repro_progress_done 4" in text
    assert "repro_eta_seconds 2.5" in text
    assert 'repro_worker_busy_seconds{slot="0"} 1.25' in text
    assert 'repro_worker_busy_seconds{slot="1"} 0.0' in text
    # non-numeric counter values are skipped, not rendered broken
    assert "ignored" not in text


def test_counter_vs_gauge_typing():
    text = render_prom(SNAPSHOT)
    assert "# TYPE repro_engine_trials counter" in text
    assert "# TYPE repro_engine_utilization gauge" in text


def test_metric_name_folds_illegal_characters():
    assert metric_name("rq_wait.max-ns") == "repro_rq_wait_max_ns"
    assert metric_name("Weird  Name!") == "repro_weird_name"
