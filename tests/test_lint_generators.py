"""No pure pass-through generator wrappers (see tools/lint_generators.py).

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
