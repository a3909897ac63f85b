"""The pair comparator's verdicts and its digest check."""

import json

import compare

SPEC = {"end_to_end": [
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.05},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]}


def write_runs(directory, ops, works, digest="d" * 16):
    for seed, (op, work) in enumerate(zip(ops, works), start=1):
        run_dir = directory / f"run{seed}"
        run_dir.mkdir(parents=True)
        (run_dir / "w.json").write_text(json.dumps({
            "workload": "w", "seed": seed, "trace": 0, "sim_digest": digest,
            "values": {"op_s.p50": op, "work_per_s": work}}))


def verdicts(tmp_path, a_ops, b_ops, a_work, b_work, b_digest="d" * 16):
    write_runs(tmp_path / "A", a_ops, a_work)
    write_runs(tmp_path / "B", b_ops, b_work, b_digest)
    rows, problems = compare.compare(tmp_path / "A", tmp_path / "B", SPEC)
    return {r["metric"]: r["verdict"] for r in rows}, problems


def test_improved_worse_and_within_bound(tmp_path):
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [x * 0.8 for x in base]
    got, problems = verdicts(tmp_path, base, faster, base, base)
    assert got == {"op_s.p50": "improved", "work_per_s": "within bound"}
    assert problems == []


def test_a_regression_past_the_bound_is_worse(tmp_path):
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    got, _ = verdicts(tmp_path, base, base, base, [x * 0.9 for x in base])
    assert got["work_per_s"] == "worse"


def test_a_noisy_parent_is_unresolved(tmp_path):
    noisy = [1.0, 1.3, 0.7, 1.2, 0.8]
    got, _ = verdicts(tmp_path, noisy, noisy, noisy, noisy)
    assert got == {"op_s.p50": "unresolved", "work_per_s": "unresolved"}


def test_moved_simulated_outputs_are_reported(tmp_path):
    base = [1.0, 1.0, 1.0]
    _, problems = verdicts(tmp_path, base, base, base, base, b_digest="e" * 16)
    assert len(problems) == 3
