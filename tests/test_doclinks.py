"""Doc links must not go stale (see tools/lint_doclinks.py).

The docs cross-reference files by relative path; this wrapper keeps the
contract enforceable from a plain pytest run (CI also runs the tool
directly).
"""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from lint_doclinks import default_roots, extract_links, lint_file, lint_roots  # noqa: E402


def test_repo_docs_have_no_broken_links():
    findings = lint_roots(default_roots(REPO), repo_root=REPO)
    assert findings == [], "\n".join(findings)


def test_extractor_finds_inline_links_and_images():
    links = extract_links("see [a](x.md) and ![img](pic.svg 'title')\n")
    assert links == [(1, "x.md"), (1, "pic.svg")]


def test_extractor_skips_external_and_anchor_targets():
    text = "[web](https://example.com) [mail](mailto:x@y) [sec](#here)\n"
    assert extract_links(text) == []


def test_extractor_skips_fenced_code_blocks():
    text = "```\n[not a](link.md)\n```\n[real](x.md)\n"
    assert extract_links(text) == [(4, "x.md")]


def test_anchor_suffix_checks_the_file_part(tmp_path):
    (tmp_path / "target.md").write_text("# t\n")
    doc = tmp_path / "doc.md"
    doc.write_text("[ok](target.md#section)\n")
    assert lint_file(doc) == []


def test_missing_target_is_reported_with_line_number(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("fine\n\n[gone](nowhere.md)\n")
    findings = lint_file(doc)
    assert len(findings) == 1
    assert "doc.md:3" in findings[0] and "nowhere.md" in findings[0]


def test_repo_absolute_targets_resolve_against_root(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "deep.md").write_text("[top](/README.md)\n")
    (tmp_path / "README.md").write_text("# r\n")
    assert lint_file(tmp_path / "docs" / "deep.md", root=tmp_path) == []
    assert lint_file(tmp_path / "docs" / "deep.md", root=tmp_path / "docs") != []


def test_cli_fails_on_256_findings(tmp_path):
    # an exit status of len(findings) wraps to 0 at 256
    doc = tmp_path / "many.md"
    doc.write_text("".join(f"[x](gone-{i}.md)\n" for i in range(256)))
    run = subprocess.run([sys.executable, str(REPO / "tools" /
                                              "lint_doclinks.py"), str(doc)],
                         capture_output=True, text=True, cwd=tmp_path)
    assert "256 broken link(s)" in run.stdout
    assert run.returncode != 0
