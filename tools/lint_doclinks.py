#!/usr/bin/env python
"""Doc-link lint: a dependency-free relative-link checker for Markdown.

The docs cross-reference files by path (``docs/ARCHITECTURE.md`` links
modules, ``README`` links every doc) and nothing else guards against
drift when files move.  This tool extracts every inline Markdown link or
image (``[text](target)`` / ``![alt](target)``) from the given files and
checks that each *relative* target resolves to an existing file or
directory.

Skipped targets (not this tool's business):

* absolute URLs (``scheme://...``) and ``mailto:`` links;
* pure in-page anchors (``#section``);
* links inside fenced code blocks (`` ``` `` ... `` ``` ``), which are
  examples, not references.

A ``path#anchor`` target is checked for the *file* part only (anchor
names are not validated).  Exit status is 1 when there is any finding,
so CI fails when a doc link goes stale.

Usage::

    python tools/lint_doclinks.py [file-or-dir ...]

Default roots: every ``*.md`` at the repository top level plus the
``docs/`` and ``results/`` trees.
"""

from __future__ import annotations

import pathlib
import re
import sys

#: inline link/image: [text](target) with an optional "title" suffix.
#: the target group stops at whitespace or the closing paren, which is
#: how CommonMark treats unbracketed destinations.
_LINK = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+[\"'][^)]*)?\)")
_FENCE = re.compile(r"^\s*(```|~~~)")
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def extract_links(text: str) -> list[tuple[int, str]]:
    """Return ``(line_number, target)`` for every inline link or image.

    Fenced code blocks are skipped; external (``scheme:``) targets and
    pure ``#anchor`` targets are filtered out here so callers only see
    candidates that should resolve on disk.
    """
    out: list[tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in _LINK.finditer(line):
            target = m.group(1)
            if not target or target.startswith("#") or _SCHEME.match(target):
                continue
            out.append((lineno, target))
    return out


def lint_file(path: pathlib.Path, root: pathlib.Path | None = None) -> list[str]:
    """Check one Markdown file; returns human-readable findings.

    Relative targets resolve against the file's own directory; a target
    starting with ``/`` resolves against ``root`` (the repository top
    level) instead, mirroring how the docs use repo-absolute paths.
    """
    findings: list[str] = []
    base = path.parent
    root = root or base
    for lineno, target in extract_links(path.read_text(encoding="utf-8")):
        clean = target.split("#", 1)[0]
        if not clean:
            continue
        resolved = (root / clean.lstrip("/")) if clean.startswith("/") else (base / clean)
        if not resolved.exists():
            findings.append(f"{path}:{lineno}: broken link -> {target}")
    return findings


def lint_roots(roots: list[pathlib.Path], repo_root: pathlib.Path | None = None) -> list[str]:
    """Lint every ``*.md`` under the given files/directories."""
    findings: list[str] = []
    for r in roots:
        files = [r] if r.is_file() else sorted(r.rglob("*.md"))
        for path in files:
            findings += lint_file(path, root=repo_root)
    return findings


def default_roots(repo: pathlib.Path) -> list[pathlib.Path]:
    """Top-level ``*.md`` files plus the ``docs/`` and ``results/`` trees."""
    roots: list[pathlib.Path] = sorted(repo.glob("*.md"))
    for sub in ("docs", "results"):
        if (repo / sub).is_dir():
            roots.append(repo / sub)
    return roots


def main(argv: list[str]) -> int:
    """CLI entry point; returns 1 when there is any finding, else 0."""
    repo = pathlib.Path.cwd()
    roots = [pathlib.Path(a) for a in argv] or default_roots(repo)
    findings = lint_roots(roots, repo_root=repo)
    for f in findings:
        print(f)
    print(f"doc-link lint: {len(findings)} broken link(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
