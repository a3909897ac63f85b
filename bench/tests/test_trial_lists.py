"""The seed picks the trial list; the grid it draws from never changes."""

import json

import pytest

import metrics
import trials


def _without_seeds(trial_list):
    out = []
    for trial in trial_list:
        trial = json.loads(json.dumps(trial))
        del trial["config"]["seed"]
        out.append(json.dumps(trial, sort_keys=True))
    return sorted(out)


@pytest.mark.parametrize("workload", sorted(trials.SIM_WORKLOADS))
def test_same_seed_same_list_other_seed_other_list(workload):
    first = trials.trial_list(workload, 1)
    assert first == trials.trial_list(workload, 1)
    assert first != trials.trial_list(workload, 2)
    assert len(first) == len(trials.round_configs(workload))


@pytest.mark.parametrize("workload", sorted(trials.SIM_WORKLOADS))
def test_every_seed_measures_the_same_mix(workload):
    assert _without_seeds(trials.trial_list(workload, 1)) == \
        _without_seeds(trials.trial_list(workload, 7))


@pytest.mark.parametrize("workload", sorted(trials.SIM_WORKLOADS))
def test_a_round_is_enough_for_p90_and_indices_are_stable(workload):
    size = len(trials.round_configs(workload))
    assert metrics.tail_ok(size, 90) and not metrics.tail_ok(size, 99)
    two = trials.trial_list(workload, 3, rounds=2)
    assert two[:size] == trials.trial_list(workload, 3)
    assert two[size:] != two[:size]


def test_seconds_set_the_number_of_rounds():
    assert trials.rounds_for(1) == 1
    assert trials.rounds_for(trials.ROUND_SECONDS) == 1
    assert trials.rounds_for(3 * trials.ROUND_SECONDS) == 3
