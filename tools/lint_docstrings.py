#!/usr/bin/env python
"""Docstring lint: a dependency-free pydocstyle subset for this repo.

Checks every ``.py`` file under the given roots (default ``src/repro``
and ``tools``) and reports:

* ``D100`` -- module missing a docstring;
* ``D101`` -- public class missing a docstring;
* ``D102`` -- public method missing a docstring;
* ``D103`` -- public function missing a docstring;
* ``D210`` -- docstring surrounded by stray whitespace;
* ``D419`` -- docstring present but empty.

"Public" means the name (and every enclosing scope) has no leading
underscore; ``__init__`` and other dunders are exempt, as are nested
(function-local) definitions and unit-test files (``test_*`` under a
``tests`` directory; a ``test_*`` file anywhere else *is* linted).
Exit status is 1 when there is any finding, so CI fails when coverage
regresses.

Usage::

    python tools/lint_docstrings.py [root ...]
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _docstring_findings(node, path: pathlib.Path, label: str, code: str) -> list[str]:
    doc = ast.get_docstring(node, clean=False)
    line = getattr(node, "lineno", 1)
    if doc is None:
        return [f"{path}:{line}: {code} {label} missing docstring"]
    if not doc.strip():
        return [f"{path}:{line}: D419 {label} docstring is empty"]
    first = doc.splitlines()[0]
    if first != first.strip():
        return [f"{path}:{line}: D210 {label} docstring has stray "
                f"surrounding whitespace"]
    return []


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _walk_definitions(body, qualifier: str, path: pathlib.Path, in_class: bool):
    findings = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            if _is_public(node.name):
                findings += _docstring_findings(
                    node, path, f"class {qualifier}{node.name}", "D101")
                findings += _walk_definitions(
                    node.body, f"{qualifier}{node.name}.", path, in_class=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # dunders inherit their contract
            if _is_public(node.name):
                kind = "method" if in_class else "function"
                code = "D102" if in_class else "D103"
                findings += _docstring_findings(
                    node, path, f"{kind} {qualifier}{node.name}", code)
    return findings


def lint_file(path: pathlib.Path) -> list[str]:
    """All findings for one source file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: E999 syntax error: {exc.msg}"]
    findings = _docstring_findings(tree, path, f"module {path.stem}", "D100")
    findings += _walk_definitions(tree.body, "", path, in_class=False)
    return findings


def lint_roots(roots) -> list[str]:
    """All findings for every ``.py`` file under ``roots`` (sorted)."""
    findings = []
    for root in roots:
        root = pathlib.Path(root)
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            # Unit tests are exempt; test_* files outside any tests/
            # directory are not.
            if path.name.startswith("test_") and "tests" in path.parts:
                continue
            findings += lint_file(path)
    return findings


def main(argv=None) -> int:
    """CLI entry point; returns 1 when there is any finding, else 0."""
    roots = (argv if argv else sys.argv[1:]) or ["src/repro", "tools"]
    findings = lint_roots(roots)
    for finding in findings:
        print(finding)
    print(f"docstring lint: {len(findings)} finding(s) in {', '.join(map(str, roots))}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
