#!/usr/bin/env python
"""Generator lint: no pure pass-through generator wrappers.

A generator function whose whole body, docstring aside, is one of

* ``yield from f(...)``
* ``x = yield from f(...)`` followed by ``return x``
* ``return (yield from f(...))``

adds nothing but a frame to the chain the scheduler resumes, and a
frame on that chain is paid on *every* resume of every yield beneath
it.  Such a wrapper must delegate by returning the inner generator
instead: ``return f(...)``.  Callers still drive it with ``yield from``.
See ``docs/PERFORMANCE.md``, "Generator depth on poll paths".

Every function and method is checked, nested ones included.  Exit
status is 1 when there is any finding, so CI fails when a wrapper comes
back.

Usage::

    python tools/lint_generators.py [root ...]     # default: src/repro
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _inner_call(node) -> ast.Call | None:
    """The call ``f(...)`` when ``node`` is ``yield from f(...)``."""
    if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
        return node.value
    return None


def _delegated_call(body) -> ast.Call | None:
    """The forwarded call if ``body`` only passes one generator through."""
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]  # docstring
    if len(body) == 1:
        stmt = body[0]
        if isinstance(stmt, (ast.Expr, ast.Return)):
            return _inner_call(stmt.value)
        return None
    if len(body) == 2:
        first, second = body
        if (isinstance(first, ast.Assign) and len(first.targets) == 1
                and isinstance(first.targets[0], ast.Name)
                and isinstance(second, ast.Return)
                and isinstance(second.value, ast.Name)
                and second.value.id == first.targets[0].id):
            return _inner_call(first.value)
    return None


def _walk(body, qualifier: str, path: pathlib.Path) -> list[str]:
    findings = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            findings += _walk(node.body, f"{qualifier}{node.name}.", path)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            call = _delegated_call(node.body)
            if call is not None:
                findings.append(
                    f"{path}:{node.lineno}: G001 {qualifier}{node.name} only "
                    f"delegates to {ast.unparse(call.func)}(...); "
                    f"return the inner generator instead of yield from")
            findings += _walk(node.body, f"{qualifier}{node.name}.", path)
        else:
            # functions defined under if/try/with/for blocks
            for field in ("body", "orelse", "finalbody", "handlers"):
                findings += _walk(getattr(node, field, ()), qualifier, path)
    return findings


def lint_file(path: pathlib.Path) -> list[str]:
    """All findings for one source file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: E999 syntax error: {exc.msg}"]
    return _walk(tree.body, "", path)


def lint_roots(roots) -> list[str]:
    """All findings for every ``.py`` file under ``roots`` (sorted)."""
    findings = []
    for root in roots:
        root = pathlib.Path(root)
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            findings += lint_file(path)
    return findings


def main(argv=None) -> int:
    """CLI entry point; returns 1 when there is any finding, else 0."""
    roots = (argv if argv else sys.argv[1:]) or ["src/repro"]
    findings = lint_roots(roots)
    for finding in findings:
        print(finding)
    print(f"generator lint: {len(findings)} finding(s) in {', '.join(map(str, roots))}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
