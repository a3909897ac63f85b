"""Golden byte-identity suite: the untraced and the traced run cannot
diverge silently.

The scheduler runs one loop body whatever is installed (see
docs/PERFORMANCE.md).  These tests run the tiny (micro) fig3a and chaos
scenarios twice -- tracing off, then tracing on -- and compare the
deterministic artifacts byte-for-byte against goldens committed under
``tests/goldens/``:

* the run-summary CSV (virtual elapsed, events, SPCs, latency summary)
  must be identical for the untraced AND the traced run -- toggling the
  tracer must not move a single virtual nanosecond;
* the traced run's Chrome JSON export must equal the committed trace.

Each deterministic probe (:mod:`repro.perf.probes`) has a golden too:
``probe_<family>.json`` holds the probe's ``{metric: value}`` dict, and
a mismatch names every drifted metric with its committed and fresh
values.  ``tests/perf/test_probes.py`` checks that the goldens and the
probes name the same families.

Regenerate the goldens after an *intentional* behaviour change with::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/test_golden_identity.py

and commit the diff (the review of that diff is the behaviour review).
"""

import json
import os
import pathlib

import pytest

from repro.obs.export import to_chrome_json
from repro.obs.scenarios import representative_run
from repro.obs.tracer import Tracer
from repro.perf.probes import PROBES

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
EXPS = ("fig3a", "chaos")


def _run_micro(exp: str, trace: bool):
    """One micro representative run; returns (result, tracer-or-None)."""
    captured = {}

    def instrument(sched, world):
        captured["tracer"] = Tracer(sched)

    result, _ = representative_run(
        exp, seed=1, micro=True, instrument=instrument if trace else None)
    tracer = captured.get("tracer")
    if tracer is not None:
        tracer.detach()
    return result, tracer


def _summary_csv(result) -> bytes:
    """Deterministic run-summary CSV (pure function of the virtual run)."""
    rows = [("metric", "value")]
    rows.append(("elapsed_ns", str(result.elapsed_ns)))
    rows.append(("events_processed", str(result.events_processed)))
    rows.append(("message_rate", repr(result.message_rate)))
    rows.append(("messages", str(result.messages)))
    rows.append(("per_pair_received", ";".join(map(str, result.per_pair_received))))
    for key, value in sorted(result.spc.as_dict().items()):
        rows.append((f"spc.{key}", repr(value)))
    for key, value in sorted(result.latency.items()):
        rows.append((f"latency.{key}", repr(value)))
    for key, value in sorted((result.faults or {}).items()):
        rows.append((f"faults.{key}", repr(value)))
    return ("\n".join(f"{k},{v}" for k, v in rows) + "\n").encode("ascii")


def _check(name: str, payload: bytes) -> None:
    path = GOLDENS / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return
    assert path.exists(), (
        f"missing golden {path}; regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 python -m pytest {__file__}")
    assert payload == path.read_bytes(), (
        f"{name} diverged from its committed golden -- the simulation's "
        f"virtual-time behaviour changed.  If intentional, regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 and commit the diff.")


@pytest.mark.parametrize("exp", EXPS)
def test_untraced_run_matches_golden_csv(exp):
    result, _ = _run_micro(exp, trace=False)
    _check(f"{exp}_micro.summary.csv", _summary_csv(result))


@pytest.mark.parametrize("exp", EXPS)
def test_traced_run_matches_the_same_golden_csv(exp):
    # tracing toggled ON must not change any deterministic artifact
    result, _ = _run_micro(exp, trace=True)
    _check(f"{exp}_micro.summary.csv", _summary_csv(result))


@pytest.mark.parametrize("exp", EXPS)
def test_traced_export_matches_golden_trace(exp):
    _, tracer = _run_micro(exp, trace=True)
    _check(f"{exp}_micro.trace.json", to_chrome_json(tracer).encode("utf-8"))


@pytest.mark.parametrize("family", sorted(PROBES))
def test_probe_matches_golden(family):
    fresh = PROBES[family]()
    path = GOLDENS / f"probe_{family}.json"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden {path}; regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 python -m pytest {__file__}")
    # pytest's dict diff names each drifted metric with both values
    assert json.loads(path.read_text()) == fresh, (
        f"{path.name} (left) differs from a fresh probe run (right) -- the "
        f"simulation's behaviour changed.  If intentional, regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 and commit the diff.")
