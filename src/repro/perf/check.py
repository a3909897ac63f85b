"""The perf gate: diff fresh probe runs against committed baselines.

``check_benches`` recomputes every registered probe and compares the
result, metric by metric, with the ``deterministic`` section of the
matching ``results/BENCH_<name>.json``.  Integers and strings must
match exactly; floats get a small relative tolerance (they are derived
from exact integers, so only rounding in the derivation itself is
forgiven).

The output is a :class:`CheckReport`: per-metric deltas with old/new
values, plus structural findings (missing baselines, stale metrics
that no probe produces anymore, empty deterministic sections).  The
CLI renders it via :func:`render_report` and exits non-zero on any
failure, which is exactly what the CI ``perf-gate`` job gates on.

``update_benches`` is the other half of the workflow: rewrite the
``deterministic`` sections so an *intentional* behaviour change becomes
a reviewable baseline diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.baseline import bench_path, list_benches, load_bench, write_bench
from repro.perf.probes import PROBES, run_probe

#: default relative tolerance for float metrics
REL_TOL = 1e-9


@dataclass
class Delta:
    """One metric that differs between baseline and fresh run."""

    bench: str
    metric: str
    old: object       #: committed value (None when newly appeared)
    new: object       #: freshly probed value (None when vanished)

    def describe(self) -> str:
        """One human-readable line for the delta report."""
        if self.old is None:
            return f"{self.bench}.{self.metric}: new metric = {self.new!r}"
        if self.new is None:
            return f"{self.bench}.{self.metric}: baseline metric vanished " \
                   f"(was {self.old!r})"
        line = f"{self.bench}.{self.metric}: {self.old!r} -> {self.new!r}"
        if isinstance(self.old, (int, float)) \
                and isinstance(self.new, (int, float)) and self.old:
            line += f" ({(self.new - self.old) / abs(self.old):+.3%})"
        return line


@dataclass
class BenchCheck:
    """Comparison outcome for one bench family."""

    name: str
    status: str                 #: "ok" | "drift" | "missing" | "empty"
    metrics: int = 0            #: metrics compared
    deltas: list[Delta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when this family passes the gate."""
        return self.status == "ok"


@dataclass
class CheckReport:
    """The full gate outcome across all bench families."""

    checks: list[BenchCheck] = field(default_factory=list)
    unknown_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every family passes and no stray baselines exist."""
        return all(c.ok for c in self.checks) and not self.unknown_files

    @property
    def deltas(self) -> list[Delta]:
        """All metric deltas across families."""
        return [d for c in self.checks for d in c.deltas]

    @property
    def missing(self) -> list[str]:
        """Families whose committed baseline file does not exist.

        Distinct from :attr:`unknown_files` (stray ``BENCH_*.json``
        with no matching probe): a missing baseline means ``perf
        update`` was never run for a registered probe; a stray file
        means a baseline outlived its probe.  The summary reports the
        two separately.
        """
        return [c.name for c in self.checks if c.status == "missing"]


def values_match(old, new, rel_tol: float = REL_TOL) -> bool:
    """Whether one committed value matches one freshly probed value.

    Exact for ints, strings and bools; floats (either side) compare
    with relative tolerance ``rel_tol``.
    """
    if isinstance(old, bool) or isinstance(new, bool):
        return old is new
    if isinstance(old, float) or isinstance(new, float):
        if not isinstance(old, (int, float)) \
                or not isinstance(new, (int, float)):
            return False
        if old == new:
            return True
        scale = max(abs(old), abs(new))
        return abs(old - new) <= rel_tol * scale
    return old == new


def compare(name: str, baseline: dict, fresh: dict,
            rel_tol: float = REL_TOL) -> BenchCheck:
    """Compare one family's committed metrics against a fresh probe run."""
    deltas = []
    for metric in sorted(set(baseline) | set(fresh)):
        old, new = baseline.get(metric), fresh.get(metric)
        if metric not in baseline or metric not in fresh \
                or not values_match(old, new, rel_tol):
            deltas.append(Delta(name, metric, old, new))
    status = "drift" if deltas else "ok"
    return BenchCheck(name=name, status=status,
                      metrics=len(set(baseline) | set(fresh)), deltas=deltas)


def check_benches(results_dir, names: list[str] | None = None,
                  rel_tol: float = REL_TOL) -> CheckReport:
    """Run every probe (or ``names``) and gate against ``results_dir``."""
    selected = sorted(names) if names else sorted(PROBES)
    report = CheckReport()
    for name in selected:
        path = bench_path(results_dir, name)
        if not path.exists():
            report.checks.append(BenchCheck(name=name, status="missing"))
            continue
        baseline = load_bench(path)["deterministic"]
        if not baseline:
            report.checks.append(BenchCheck(name=name, status="empty"))
            continue
        report.checks.append(compare(name, baseline, run_probe(name),
                                     rel_tol=rel_tol))
    if names is None:
        known = {f"BENCH_{n}.json" for n in PROBES}
        report.unknown_files = [p.name for p in list_benches(results_dir)
                                if p.name not in known]
    return report


def update_benches(results_dir, names: list[str] | None = None) -> list[str]:
    """Re-probe and rewrite the deterministic sections; returns names."""
    selected = sorted(names) if names else sorted(PROBES)
    for name in selected:
        write_bench(results_dir, name, run_probe(name))
    return selected


def render_report(report: CheckReport) -> str:
    """The delta report ``python -m repro perf check`` prints."""
    lines = []
    width = max((len(c.name) for c in report.checks), default=4)
    for c in report.checks:
        if c.status == "ok":
            note = f"{c.metrics} deterministic metrics match"
        elif c.status == "drift":
            note = f"{len(c.deltas)} of {c.metrics} metrics drifted"
        elif c.status == "empty":
            note = "baseline has an empty deterministic section " \
                   "(run: python -m repro perf update)"
        else:
            note = "no committed baseline " \
                   "(run: python -m repro perf update)"
        mark = "ok  " if c.ok else "FAIL"
        lines.append(f"{mark} {c.name:<{width}}  {note}")
    for c in report.checks:
        for d in c.deltas:
            lines.append(f"     {d.describe()}")
    for stray in report.unknown_files:
        lines.append(f"FAIL {stray}: stray baseline file "
                     "(no matching probe; delete it or register a probe)")
    passed = sum(1 for c in report.checks if c.ok)
    summary = f"perf gate: {passed}/{len(report.checks)} families pass"
    if report.missing:
        summary += (f", {len(report.missing)} baseline(s) missing "
                    f"({', '.join(report.missing)})")
    if report.unknown_files:
        summary += (f", {len(report.unknown_files)} stray file(s) "
                    f"({', '.join(report.unknown_files)})")
    lines.append(summary + ("" if report.ok else " -- FAILED"))
    return "\n".join(lines)


def report_json(report: CheckReport) -> dict:
    """Machine-readable form of a :class:`CheckReport`.

    One format for every consumer -- ``repro perf check --json`` and
    the CI gate -- instead of each scraping the text report.  Missing
    baselines and stray files are separate fields.
    """
    return {
        "schema": 1,
        "ok": report.ok,
        "passed": sum(1 for c in report.checks if c.ok),
        "total": len(report.checks),
        "missing": list(report.missing),
        "stray_files": list(report.unknown_files),
        "families": [
            {
                "name": c.name,
                "status": c.status,
                "ok": c.ok,
                "metrics": c.metrics,
                "deltas": [
                    {"metric": d.metric, "old": d.old, "new": d.new}
                    for d in c.deltas
                ],
            }
            for c in report.checks
        ],
    }
