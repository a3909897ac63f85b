"""``BENCHMARK.json`` is well formed and declares what the runner emits."""

import json
import pathlib
import re

import layers
import run

SPEC = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_end_to_end_bounds():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_declares_every_layer_and_counter():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for name in layers.LAYERS:
        assert f"layer.{name}.self_share" in declared
        assert f"layer.{name}.calls_in" in declared
    assert set(run.SIM_COUNTS) <= declared
    assert set(run.SERVICE_ONLY) <= declared
    assert {"setup.import.repro_s", "setup.import.numpy_s",
            "trace.overhead"} <= declared
