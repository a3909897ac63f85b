"""Testbed presets (Table I analogue)."""

from repro.experiments.testbeds import ALEMBERT, TESTBEDS, TRINITITE_HASWELL, TRINITITE_KNL


def test_three_testbeds_registered():
    assert set(TESTBEDS) == {"alembert", "trinitite-haswell", "trinitite-knl"}


def test_alembert_matches_paper_row():
    assert ALEMBERT.cores_per_node == 20
    assert "InfiniBand EDR" in ALEMBERT.interconnect
    assert ALEMBERT.fabric.max_contexts is None
    row = ALEMBERT.as_row()
    assert row["Compiler"] == "GCC 8.3.0"


def test_trinitite_uses_aries_with_context_limit():
    assert TRINITITE_HASWELL.fabric.max_contexts is not None
    assert TRINITITE_HASWELL.default_instances == 32
    assert TRINITITE_KNL.default_instances == 72
    assert TRINITITE_KNL.default_instances <= TRINITITE_KNL.fabric.max_contexts


def test_knl_cores_are_slower():
    assert TRINITITE_KNL.costs.send_path_ns > TRINITITE_HASWELL.costs.send_path_ns
    assert TRINITITE_KNL.cores_per_node > TRINITITE_HASWELL.cores_per_node
