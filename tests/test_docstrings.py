"""Docstring coverage must not regress (see tools/lint_docstrings.py).

The linter is a dependency-free pydocstyle subset: every public module,
class, method, and function under ``src/repro`` and ``tools`` needs a
docstring (unit tests under a ``tests`` directory are exempt; ``test_*``
files anywhere else are not).  CI also runs the tool directly; this
test keeps the contract enforceable from a plain pytest run.
"""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from lint_docstrings import lint_file, lint_roots  # noqa: E402


def test_src_repro_is_docstring_clean():
    findings = lint_roots([REPO / "src" / "repro"])
    assert findings == [], "\n".join(findings)


def test_tools_are_docstring_clean():
    findings = lint_roots([REPO / "tools"])
    assert findings == [], "\n".join(findings)


def test_unit_tests_are_exempt_but_benches_are_not(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("def test_x():\n    pass\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "test_bench_x.py").write_text(
        "def test_b():\n    pass\n")
    assert lint_roots([tmp_path / "tests"]) == []
    findings = lint_roots([tmp_path / "benchmarks"])
    assert any("D103" in f for f in findings)


def test_linter_flags_a_bad_module(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def exposed(x):\n    return x\n")
    findings = lint_file(bad)
    assert any("D100" in f for f in findings)
    assert any("D103" in f and "exposed" in f for f in findings)


def test_linter_accepts_private_and_dunder_names(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text('"""Module."""\n\n\n'
                  "def _hidden(x):\n    return x\n\n\n"
                  "class Thing:\n"
                  '    """A thing."""\n\n'
                  "    def __init__(self):\n        self.x = 1\n")
    assert lint_file(ok) == []


def test_linter_flags_empty_and_padded_docstrings(tmp_path):
    bad = tmp_path / "pads.py"
    bad.write_text('"""Module."""\n\n\n'
                   'def empty():\n    """   """\n\n\n'
                   'def padded():\n    """ padded. """\n')
    findings = lint_file(bad)
    assert any("D419" in f for f in findings)
    assert any("D210" in f for f in findings)


def test_cli_fails_on_256_findings(tmp_path):
    # an exit status of len(findings) wraps to 0 at 256
    bad = tmp_path / "many.py"
    bad.write_text('"""Module."""\n'
                   + "".join(f"def f{i}():\n    pass\n" for i in range(256)))
    run = subprocess.run([sys.executable, str(REPO / "tools" /
                                              "lint_docstrings.py"), str(bad)],
                         capture_output=True, text=True)
    assert "256 finding(s)" in run.stdout
    assert run.returncode != 0
