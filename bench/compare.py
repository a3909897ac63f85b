"""Compare two sets of benchmark runs: ``python3 bench/compare.py A/ B/``.

``A`` is the parent (baseline) and ``B`` the change; each directory holds
the ``<workload>.json`` results of several untraced runs, at any depth
(one ``--out`` directory per run).  For every workload and end-to-end
metric declared in ``BENCHMARK.json`` it prints each side's median and
quartiles, the share of paired runs the change wins, and a verdict:

* ``improved`` -- the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's inter-quartile distance;
* ``unresolved`` -- the parent's own spread is wider than the metric's
  bound, and not every run of the change beats every run of the parent;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` -- otherwise.

Runs pair up by seed (sorted order when the seeds differ); ties count
for neither side.  Both sides must also report the same ``sim_digest``
for every workload and seed they share: the simulated outputs may not
move.  Exits 1 when any row is ``worse`` or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import metrics

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(directory: pathlib.Path) -> dict:
    """``{workload: [result, ...]}`` for every untraced result under a dir."""
    runs: dict[str, list] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        if isinstance(doc, dict) and "workload" in doc and "values" in doc \
                and not doc.get("trace"):
            runs.setdefault(doc["workload"], []).append(doc)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def pairs(a: list, b: list) -> list[tuple[dict, dict]]:
    """Pair runs by seed when both sides share seeds, else by sorted order."""
    b_by_seed = {r["seed"]: r for r in b}
    shared = [(r, b_by_seed[r["seed"]]) for r in a if r["seed"] in b_by_seed]
    return shared if shared else list(zip(a, b))


def verdict(a: list[float], b: list[float], won: list[bool | None],
            lower_better: bool, bound: float) -> str:
    """The verdict for one metric (see the module docstring)."""
    a_q1, a_med, a_q3 = metrics.quartiles(a)
    b_med = metrics.quartiles(b)[1]
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    wins = sum(1 for w in won if w)
    if won and wins >= 0.9 * len(won) and better(b_med, a_med) \
            and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    every_better = all(better(x, y) for x in b for y in a)
    if a_med and (a_q3 - a_q1) / a_med > bound and not every_better:
        return "unresolved"
    worse_by = ((b_med - a_med) if lower_better else (a_med - b_med)) / a_med \
        if a_med else 0.0
    return "worse" if worse_by > bound else "within bound"


def compare(a_dir: pathlib.Path, b_dir: pathlib.Path, spec: dict) -> tuple[list, list]:
    """Rows for every workload x end-to-end metric, and digest problems."""
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    rows, digest_problems = [], []
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        matched = pairs(a, b)
        for ra, rb in matched:
            if ra["seed"] == rb["seed"] and ra["sim_digest"] != rb["sim_digest"]:
                digest_problems.append(f"{workload} seed {ra['seed']}: "
                                       f"{ra['sim_digest']} != {rb['sim_digest']}")
        for decl in spec["end_to_end"]:
            name = decl["name"]
            lower = decl["better"] == "lower"
            av = [r["values"][name] for r in a]
            bv = [r["values"][name] for r in b]
            won = []
            for ra, rb in matched:
                x, y = rb["values"][name], ra["values"][name]
                won.append(None if x == y else (x < y) == lower)
            aq, bq = metrics.quartiles(av), metrics.quartiles(bv)
            rows.append({
                "workload": workload, "metric": name, "unit": decl["unit"],
                "a": aq, "b": bq, "n": (len(av), len(bv)),
                "win": sum(1 for w in won if w) / len(won) if won else 0.0,
                "spread_a": metrics.spread(av), "bound": decl["bound"],
                "verdict": verdict(av, bv, won, lower, decl["bound"])})
    return rows, digest_problems


def main(argv=None) -> int:
    """Print the comparison table; 1 when anything got worse or moved."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="parent (baseline) runs")
    parser.add_argument("b", type=pathlib.Path, help="change runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, digest_problems = compare(args.a, args.b, spec)
    if not rows:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | "
          "n A/B | B wins | A spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        a1, am, a3 = r["a"]
        b1, bm, b3 = r["b"]
        print(f"| {r['workload']} | {r['metric']} ({r['unit']}) | "
              f"{am:.4g} [{a1:.4g}, {a3:.4g}] | {bm:.4g} [{b1:.4g}, {b3:.4g}] | "
              f"{r['n'][0]}/{r['n'][1]} | {r['win']:.0%} | "
              f"{r['spread_a']:.1%} | {r['bound']:.0%} | {r['verdict']} |")
    if digest_problems:
        print("\nsim_digest DIFFERS:")
        for problem in digest_problems:
            print(f"  {problem}")
    else:
        print("\nsim_digest: equal on every shared workload and seed")
    bad = digest_problems or any(r["verdict"] == "worse" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
