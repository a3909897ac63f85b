"""Multirate workload: conservation, modes, option semantics."""

import pytest

from repro.core import ThreadingConfig
from repro.workloads import MultirateConfig, run_multirate

SMALL = dict(pairs=3, window=16, windows=2)


def test_config_validation():
    with pytest.raises(ValueError):
        MultirateConfig(pairs=0)
    with pytest.raises(ValueError):
        MultirateConfig(window=0)
    with pytest.raises(ValueError):
        MultirateConfig(msg_bytes=-1)
    assert MultirateConfig(**SMALL).total_messages == 96


def test_all_messages_received_and_rate_positive():
    result = run_multirate(MultirateConfig(**SMALL))
    assert sum(result.per_pair_received) == result.messages == 96
    assert result.message_rate > 0
    assert result.elapsed_ns > 0
    assert result.spc.messages_sent == 96
    assert result.spc.messages_received == 96


@pytest.mark.parametrize("mode", ["threads", "processes", "hybrid"])
def test_entity_modes_conserve_messages(mode):
    result = run_multirate(MultirateConfig(entity_mode=mode, **SMALL))
    assert sum(result.per_pair_received) == 96


def test_process_mode_faster_than_thread_mode():
    threads = run_multirate(MultirateConfig(pairs=4, window=32, windows=2))
    procs = run_multirate(MultirateConfig(pairs=4, window=32, windows=2,
                                          entity_mode="processes"))
    assert procs.message_rate > threads.message_rate


def test_comm_per_pair_eliminates_out_of_sequence():
    threading = ThreadingConfig(num_instances=4, assignment="dedicated",
                                progress="concurrent")
    shared = run_multirate(MultirateConfig(pairs=4, window=32, windows=2),
                           threading=threading)
    private = run_multirate(MultirateConfig(pairs=4, window=32, windows=2,
                                            comm_per_pair=True),
                            threading=threading)
    assert shared.spc.out_of_sequence > 0
    assert private.spc.out_of_sequence_fraction < 0.02
    assert private.message_rate > shared.message_rate


def test_overtaking_disables_sequence_accounting():
    threading = ThreadingConfig(num_instances=4)
    cfg = MultirateConfig(pairs=4, window=32, windows=2, allow_overtaking=True)
    result = run_multirate(cfg, threading=threading)
    assert result.spc.out_of_sequence == 0
    assert sum(result.per_pair_received) == cfg.total_messages


def test_any_tag_mode_completes():
    cfg = MultirateConfig(pairs=4, window=16, windows=2,
                          allow_overtaking=True, any_tag=True)
    result = run_multirate(cfg)
    assert sum(result.per_pair_received) == cfg.total_messages


def test_seed_reproducibility():
    cfg = MultirateConfig(seed=99, **SMALL)
    a = run_multirate(cfg)
    b = run_multirate(cfg)
    assert a.message_rate == b.message_rate
    assert a.elapsed_ns == b.elapsed_ns
    c = run_multirate(MultirateConfig(seed=100, **SMALL))
    assert c.elapsed_ns != a.elapsed_ns


def test_payload_bytes_slow_things_down():
    small = run_multirate(MultirateConfig(**SMALL))
    big = run_multirate(MultirateConfig(msg_bytes=65536, **SMALL))
    assert big.message_rate < small.message_rate
