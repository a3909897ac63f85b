"""The output oracle passes real results and flags perturbed ones."""

import copy

import pytest

import oracle
import trials

WORKLOAD = "relaxed-rendezvous"


@pytest.fixture(scope="module")
def cheap_trial():
    """A quick trial of seed 1's first round, measured in-process."""
    import simchild

    trial_list = trials.trial_list(WORKLOAD, 1)
    i = next(i for i, t in enumerate(trial_list)
             if t["config"]["pairs"] == 2 and t["config"]["msg_bytes"] == 0)
    trial = trial_list[i]
    result, _, world = simchild.execute(trial)
    doc, spc = simchild.observe(trial, result, world)
    return i, trial, doc, spc


def test_expected_files_pin_every_first_round_trial():
    for workload in trials.SIM_WORKLOADS:
        expected = oracle.load_expected(workload)
        assert sorted(expected) == [str(s) for s in oracle.EXPECTED_SEEDS]
        for digests in expected.values():
            assert len(digests) == len(trials.round_configs(workload))
    assert oracle.load_expected("service")


def test_a_real_trial_matches_its_pinned_digest(cheap_trial):
    import simchild

    i, trial, doc, spc = cheap_trial
    expected = oracle.load_expected(WORKLOAD)
    assert oracle.check_trials(expected, 1, {i: oracle.digest(doc)}) == {}
    assert simchild.violations(trial, doc, spc) == []


@pytest.mark.parametrize("field, delta", [("elapsed_ns", 1), ("events", -1)])
def test_a_perturbed_result_is_flagged(cheap_trial, field, delta):
    i, _, doc, _ = cheap_trial
    bad = dict(doc, **{field: doc[field] + delta})
    problems = oracle.check_trials(oracle.load_expected(WORKLOAD), 1,
                                   {i: oracle.digest(bad)})
    assert list(problems) == [i]


def test_a_perturbed_counter_breaks_an_invariant(cheap_trial):
    import simchild

    _, trial, doc, spc = cheap_trial
    lost = copy.copy(spc)
    lost.messages_received -= 1
    assert simchild.violations(trial, doc, lost)
    overtaken = copy.copy(spc)
    overtaken.out_of_sequence = 1
    assert simchild.violations(trial, doc, overtaken)


def test_unpinned_seeds_and_trials_pass_unchecked():
    expected = {"1": ["a" * 16]}
    assert oracle.check_trials(expected, 9, {0: "b" * 16}) == {}
    assert oracle.check_trials(expected, 1, {5: "b" * 16}) == {}
    assert oracle.check_trials(expected, 1, {0: "b" * 16}) != {}


def test_service_artifacts_are_checked_byte_for_byte():
    expected = oracle.load_expected("service")
    exhibit = sorted(expected)[0]
    name = sorted(expected[exhibit])[0]
    assert oracle.check_artifact(expected, exhibit, name, b"not it")
    assert oracle.check_artifact(expected, exhibit, "missing.csv", b"")
    assert oracle.sim_digest(["a", "b"]) != oracle.sim_digest(["b", "a"])
