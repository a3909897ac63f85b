"""What a fresh process imports: stdlib only, and only the layers it runs."""

import json
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

# Same pattern: run ``statement`` and print every module it loaded.
LOADED = """
import json, sys
before = set(sys.modules)
{statement}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(statement: str) -> list[str]:
    return json.loads(_run(LOADED.format(statement=statement)).splitlines()[-1])


def _under(modules, *packages) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_cli_import_loads_only_stdlib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulator_import_loads_no_infrastructure():
    # the set-up every simulator run pays (the benchmark's setup_s probe)
    loaded = _loaded("import repro.workloads, repro.experiments.testbeds")
    assert _under(loaded, "repro.engine", "repro.serve", "repro.perf",
                  "repro.cli") == []
    assert _under(loaded, "repro.obs") == ["repro.obs", "repro.obs.tracer"]
    assert _under(loaded, "repro.experiments") == [
        "repro.experiments", "repro.experiments.testbeds"]
    assert _under(loaded, "multiprocessing", "http", "socket",
                  "subprocess") == []


# layers that `import repro.cli` and `repro list` never need
RUN_LAYERS = ("repro.simthread", "repro.netsim", "repro.core", "repro.mpi",
              "repro.workloads", "repro.engine", "repro.obs")


def test_cli_import_loads_no_run_layer():
    assert _under(_loaded("import repro.cli"), *RUN_LAYERS) == []


def test_cli_list_loads_no_run_layer():
    loaded = _loaded("from repro.cli import main; main(['list'])")
    assert _under(loaded, *RUN_LAYERS) == []


def test_root_api_resolves_every_name():
    # in a fresh interpreter, so each name goes through the lazy lookup
    unbound = _run(
        "import repro\n"
        "for name in repro.__all__: getattr(repro, name)\n"
        "scope = {}\n"
        "exec('from repro import *', scope)\n"
        "print(sorted(set(repro.__all__) - set(scope)))")
    assert unbound.strip() == "[]"
