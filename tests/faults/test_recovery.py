"""End-to-end recovery: faulted workloads complete with zero loss."""

import pytest

from repro.core import ThreadingConfig
from repro.faults.plan import FaultPlan, drop_plan
from repro.workloads.multirate import MultirateConfig, run_multirate
from repro.workloads.rmamt import RmaMtConfig, run_rmamt

CONCURRENT = ThreadingConfig(num_instances=10, assignment="dedicated",
                             progress="concurrent")


def test_multirate_survives_one_percent_drop_with_zero_loss():
    cfg = MultirateConfig(pairs=4, window=32, windows=3)
    result = run_multirate(cfg, threading=CONCURRENT,
                           fault_plan=drop_plan(0.01, seed=2))
    # run_multirate raises if any message is lost; per-pair counts confirm
    assert result.per_pair_received == [cfg.window * cfg.windows] * cfg.pairs
    assert result.faults is not None
    assert result.faults["frames"] == cfg.total_messages
    assert result.faults["acks"] == cfg.total_messages


def test_multirate_survives_heavy_mixed_faults():
    plan = FaultPlan(seed=9, drop_rate=0.1, dup_rate=0.05, corrupt_rate=0.05,
                     delay_spike_rate=0.05, ack_drop_rate=0.1)
    cfg = MultirateConfig(pairs=4, window=32, windows=2)
    result = run_multirate(cfg, threading=CONCURRENT, fault_plan=plan)
    assert sum(result.per_pair_received) == cfg.total_messages
    assert result.faults["retransmits"] > 0
    assert result.spc.retransmits == result.faults["retransmits"]
    assert result.spc.duplicates_dropped > 0


def test_rmamt_survives_one_percent_drop():
    for op in ("put", "get"):
        cfg = RmaMtConfig(threads=4, ops_per_thread=50, msg_bytes=512, op=op)
        result = run_rmamt(cfg, threading=CONCURRENT,
                           fault_plan=drop_plan(0.01, seed=3))
        # run_rmamt raises if any op is left outstanding after the flush
        assert result.faults["frames"] == cfg.total_ops
        assert result.faults["acks"] == cfg.total_ops


def test_faults_slow_the_run_but_rate_stays_positive():
    cfg = MultirateConfig(pairs=4, window=32, windows=2)
    clean = run_multirate(cfg, threading=CONCURRENT, fault_plan=FaultPlan(seed=2))
    lossy = run_multirate(cfg, threading=CONCURRENT,
                          fault_plan=drop_plan(0.3, seed=2))
    assert lossy.elapsed_ns > clean.elapsed_ns
    assert lossy.message_rate > 0


def test_no_plan_run_is_byte_identical_to_pre_fault_path():
    cfg = MultirateConfig(pairs=4, window=32, windows=2)
    plain = run_multirate(cfg, threading=CONCURRENT)
    armed_noop = run_multirate(cfg, threading=CONCURRENT, fault_plan=None)
    assert plain.faults is None and armed_noop.faults is None
    assert plain.elapsed_ns == armed_noop.elapsed_ns
    assert plain.spc.retransmits == 0
    assert plain.spc.transport_exhausted == 0
    assert plain.spc.duplicates_dropped == 0


def test_same_seed_same_plan_is_deterministic_end_to_end():
    cfg = MultirateConfig(pairs=4, window=32, windows=2)
    plan = FaultPlan(seed=6, drop_rate=0.05, dup_rate=0.05, ack_drop_rate=0.05)

    def run_once():
        r = run_multirate(cfg, threading=CONCURRENT, fault_plan=plan)
        return r.elapsed_ns, r.faults, r.spc.as_dict()

    assert run_once() == run_once()


def test_fault_seed_changes_outcome_but_not_correctness():
    cfg = MultirateConfig(pairs=4, window=32, windows=2)
    a = run_multirate(cfg, threading=CONCURRENT, fault_plan=drop_plan(0.2, seed=1))
    b = run_multirate(cfg, threading=CONCURRENT, fault_plan=drop_plan(0.2, seed=2))
    assert a.faults["drops"] != b.faults["drops"] or a.elapsed_ns != b.elapsed_ns
    assert sum(a.per_pair_received) == sum(b.per_pair_received) == cfg.total_messages
