"""The runtime is stdlib-only: importing the CLI pulls in no third-party code."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter, so modules the test session already loaded
# cannot mask a transitive import; modules loaded at interpreter start-up
# (site hooks) are not the CLI's doing and are excluded.
PROBE = """
import sys
before = set(sys.modules)
import repro.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"repro"}))
"""


def test_cli_import_loads_only_stdlib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
