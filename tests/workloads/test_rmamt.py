"""RMA-MT workload."""

import pytest

from repro.core import ThreadingConfig
from repro.workloads import RmaMtConfig, run_rmamt


def test_config_validation():
    with pytest.raises(ValueError):
        RmaMtConfig(threads=0)
    with pytest.raises(ValueError):
        RmaMtConfig(op="swap")
    with pytest.raises(ValueError):
        RmaMtConfig(sync="barrier")
    with pytest.raises(ValueError):
        RmaMtConfig(msg_bytes=-1)
    assert RmaMtConfig(threads=4, ops_per_thread=10).total_ops == 40


def test_lock_sync_is_rejected():
    """There is no lock epoch to run: ``"lock"`` must not silently run
    the flush-only epoch ``"flush"`` runs."""
    with pytest.raises(ValueError, match="sync must be one of"):
        RmaMtConfig(sync="lock")


def test_basic_run_completes_all_ops():
    result = run_rmamt(RmaMtConfig(threads=4, ops_per_thread=25, msg_bytes=8))
    assert result.message_rate > 0
    assert result.peak_rate > result.message_rate  # below theoretical peak
    assert result.config.total_ops == 100


def test_get_op_supported():
    result = run_rmamt(RmaMtConfig(threads=2, ops_per_thread=20, op="get"))
    assert result.message_rate > 0


def test_flush_per_window_sync():
    result = run_rmamt(RmaMtConfig(threads=2, ops_per_thread=64,
                                   sync="flush_per_window", window=16))
    assert result.message_rate > 0


def test_dedicated_instances_scale_with_threads():
    def rate(threads):
        cfg = RmaMtConfig(threads=threads, ops_per_thread=60, msg_bytes=1)
        return run_rmamt(cfg, threading=ThreadingConfig(
            num_instances=16, assignment="dedicated")).message_rate

    assert rate(8) > 3 * rate(1)


def test_single_instance_degrades_with_threads():
    def rate(threads):
        cfg = RmaMtConfig(threads=threads, ops_per_thread=60, msg_bytes=1)
        return run_rmamt(cfg, threading=ThreadingConfig(num_instances=1)).message_rate

    assert rate(8) < rate(1)


def test_large_messages_capped_by_bandwidth():
    cfg = RmaMtConfig(threads=8, ops_per_thread=60, msg_bytes=16384)
    result = run_rmamt(cfg, threading=ThreadingConfig(num_instances=8,
                                                      assignment="dedicated"))
    # within 20% of the bandwidth-limited peak and never above it
    assert result.message_rate <= result.peak_rate * 1.001
    assert result.message_rate > result.peak_rate * 0.5


def test_seed_reproducibility():
    cfg = RmaMtConfig(threads=3, ops_per_thread=30, seed=5)
    assert run_rmamt(cfg).elapsed_ns == run_rmamt(cfg).elapsed_ns
