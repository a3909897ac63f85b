"""FaultPlan DSL: validation, windows, and the drop_plan shorthand."""

import pytest

from repro.faults.plan import (
    ContextFailure,
    DegradeWindow,
    FaultPlan,
    RetransmitPolicy,
    drop_plan,
)


def test_default_plan_is_fault_free():
    plan = FaultPlan()
    assert not plan.has_packet_faults
    assert plan.context_failures == ()


@pytest.mark.parametrize("field", ["drop_rate", "dup_rate", "corrupt_rate",
                                   "delay_spike_rate", "ack_drop_rate"])
@pytest.mark.parametrize("value", [-0.1, 1.1])
def test_rates_must_be_probabilities(field, value):
    with pytest.raises(ValueError, match=field):
        FaultPlan(**{field: value})


def test_packet_fault_rates_are_exclusive_outcomes():
    with pytest.raises(ValueError, match="sum"):
        FaultPlan(drop_rate=0.5, dup_rate=0.3, corrupt_rate=0.3)


def test_with_overrides_keeps_frozen_semantics():
    plan = drop_plan(0.01, seed=7)
    bumped = plan.with_overrides(drop_rate=0.1)
    assert plan.drop_rate == 0.01 and bumped.drop_rate == 0.1
    assert bumped.seed == 7


def test_has_packet_faults_covers_every_knob():
    assert drop_plan(0.01).has_packet_faults
    assert FaultPlan(dup_rate=0.01).has_packet_faults
    assert FaultPlan(corrupt_rate=0.01).has_packet_faults
    assert FaultPlan(delay_spike_rate=0.01).has_packet_faults
    assert FaultPlan(ack_drop_rate=0.01).has_packet_faults
    assert FaultPlan(degrade_windows=(DegradeWindow(0, 10),)).has_packet_faults
    assert not FaultPlan(context_failures=(ContextFailure(5, 0, 0),)).has_packet_faults


def test_retransmit_policy_backoff_is_exponential():
    policy = RetransmitPolicy(timeout_ns=1000, backoff=2.0, jitter_ns=0)
    assert [policy.timeout_for(a) for a in (1, 2, 3, 4)] == [1000, 2000, 4000, 8000]


def test_retransmit_policy_validation():
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout_ns=0)
    with pytest.raises(ValueError):
        RetransmitPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetransmitPolicy(max_retries=-1)


def test_degrade_window_covers_half_open_interval():
    w = DegradeWindow(100, 200, drop_factor=3.0, extra_delay_ns=50)
    assert not w.covers(99)
    assert w.covers(100) and w.covers(199)
    assert not w.covers(200)


def test_degrade_window_must_be_ordered():
    with pytest.raises(ValueError):
        DegradeWindow(200, 100)


def test_context_failure_validation():
    with pytest.raises(ValueError):
        ContextFailure(at_ns=-1, rank=0, instance=0)
    with pytest.raises(ValueError):
        ContextFailure(at_ns=0, rank=-1, instance=0)


def test_plan_rejects_wrongly_typed_entries():
    with pytest.raises(TypeError):
        FaultPlan(degrade_windows=("not-a-window",))
    with pytest.raises(TypeError):
        FaultPlan(context_failures=("not-a-failure",))
