"""Every example script runs to completion."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script", sorted(p.name for p in EXAMPLES_DIR.glob("*.py")))
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
    assert proc.stdout.strip(), f"{script} printed nothing"


def test_examples_exist():
    names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 3
