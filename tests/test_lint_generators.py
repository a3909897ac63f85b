"""No pass-through generator wrappers and no substrate step that yields
once at its end (see tools/lint_generators.py).

CI also runs the tool directly; this test keeps the contract
enforceable from a plain pytest run and proves the lint can fail.
"""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from lint_generators import lint_file, lint_roots  # noqa: E402


def test_src_repro_has_no_pass_through_wrappers():
    findings = lint_roots([REPO / "src" / "repro"])
    assert findings == [], "\n".join(findings)


def test_lint_flags_planted_wrappers(tmp_path):
    bad = tmp_path / "wrappers.py"
    bad.write_text(
        '"""Module."""\n\n\n'
        "class Env:\n"
        "    def flush(self, win):\n"
        '        """Generator: pass-through."""\n'
        "        yield from ops.flush(self, win)\n\n"
        "    def put(self, win):\n"
        "        op = yield from ops.put(self, win)\n"
        "        return op\n\n\n"
        "def outer():\n"
        "    def inner():\n"
        "        return (yield from step())\n"
        "    return inner\n")
    findings = lint_file(bad)
    assert len(findings) == 3, findings
    assert all("G001" in f for f in findings)
    for name, line in (("Env.flush", 5), ("Env.put", 9), ("outer.inner", 15)):
        assert any(f"{bad}:{line}: G001 {name} " in f for f in findings), findings


def test_lint_accepts_delegation_by_return_and_real_work(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text(
        '"""Module."""\n\n\n'
        "def flush(env, win):\n"
        '    """Delegates by return: no frame of its own."""\n'
        "    return ops.flush(env, win)\n\n\n"
        "def isend(env, tag):\n"
        "    check(tag)\n"
        "    req = yield from env._isend(tag)\n"
        "    return req\n\n\n"
        "def send(env):\n"
        "    req = yield from env.isend(0)\n"
        "    return other\n\n\n"
        "def loop(gens):\n"
        "    for g in gens:\n"
        "        yield from g\n")
    assert lint_file(ok) == []


def test_lint_flags_a_substrate_step_that_yields_once_at_its_end(tmp_path):
    steps = tmp_path / "simthread" / "steps.py"
    steps.parent.mkdir()
    steps.write_text(
        '"""Module."""\n\n\n'
        "class Counter:\n"
        "    def fetch_add(self, n=1):\n"
        '        """Generator: one trailing yield, then the value."""\n'
        "        old = self._value\n"
        "        self._value = old + n\n"
        "        yield self.cost_delay\n"
        "        return old\n")
    findings = lint_file(steps)
    assert len(findings) == 1, findings
    assert f"{steps}:5: G002 Counter.fetch_add " in findings[0], findings
    # the same body outside simthread/core/netsim is not G002's business
    other = tmp_path / "mpi" / "steps.py"
    other.parent.mkdir()
    other.write_text(steps.read_text())
    assert lint_file(other) == []


def test_lint_accepts_a_step_that_reads_state_after_its_yield(tmp_path):
    pool = tmp_path / "core" / "pool.py"
    pool.parent.mkdir()
    pool.write_text(
        '"""Module."""\n\n\n'
        "class Pool:\n"
        "    def get_instance_round_robin(self):\n"
        '        """Generator: indexes the live list after its yield."""\n'
        "        ticket = self.take_ticket()\n"
        "        yield self.ticket_delay\n"
        "        return self.instances[ticket % len(self.instances)]\n\n"
        "    def acquire(self):\n"
        "        if self.free:\n"
        "            yield self.fast\n"
        "            return\n"
        "        yield SUSPEND\n"
        "        yield self.slow\n")
    assert lint_file(pool) == []


def test_cli_fails_on_256_findings(tmp_path):
    # an exit status of len(findings) wraps to 0 at 256
    bad = tmp_path / "many.py"
    bad.write_text('"""Module."""\n'
                   + "".join(f"def w{i}():\n    yield from step()\n"
                             for i in range(256)))
    run = subprocess.run([sys.executable, str(REPO / "tools" /
                                              "lint_generators.py"), str(bad)],
                         capture_output=True, text=True)
    assert "256 finding(s)" in run.stdout
    assert run.returncode != 0
