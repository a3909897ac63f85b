"""Trial registration: a freshly started worker resolves every trial by name."""

import json
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
_TRIAL = re.compile(r'^@trial\("([^"]+)"\)', re.MULTILINE)

# A spawn-started worker imports nothing but the registry before it
# resolves its first task; this probe does the same.
RESOLVE = """
import json, sys
from repro.engine.registry import resolve_trial
print(json.dumps({name: resolve_trial(name).__module__ for name in sys.argv[1:]}))
"""


def declared_trials() -> dict[str, str]:
    """``{trial name: defining module}`` from the ``@trial`` lines."""
    return {name: f"repro.experiments.{path.stem}"
            for path in sorted((SRC / "repro" / "experiments").glob("*.py"))
            for name in _TRIAL.findall(path.read_text())}


def test_every_exhibit_trial_is_declared():
    assert set(declared_trials()) >= {
        "chaos.point", "ext.instances", "ext.latency", "ext.modes",
        "ext.msgsize", "fig3.rate", "fig5.rate", "fig6.rate", "table2.cell"}


def test_cold_interpreter_resolves_every_trial():
    declared = declared_trials()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", RESOLVE, *declared],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == declared
