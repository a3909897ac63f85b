"""Latency histogram: recording, percentiles, merging."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.latency import LatencyHistogram


def test_empty_histogram():
    h = LatencyHistogram()
    assert h.count == 0
    assert h.mean_ns == 0.0
    assert h.percentile(50) == 0.0
    assert h.summary()["max_ns"] == 0


def test_single_sample():
    h = LatencyHistogram()
    h.record(1000)
    assert h.count == 1
    assert h.mean_ns == 1000
    assert h.min_ns == h.max_ns == 1000
    # bucket resolution ~4%
    assert 950 <= h.percentile(50) <= 1050


def test_negative_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram().record(-1)
    with pytest.raises(ValueError):
        LatencyHistogram().percentile(101)


def test_zero_latency_bucket():
    h = LatencyHistogram()
    h.record(0)
    assert h.percentile(50) == 0.0


def test_percentiles_are_monotone_and_bounded():
    rng = random.Random(7)
    h = LatencyHistogram()
    samples = [rng.randrange(1, 10_000_000) for _ in range(5000)]
    for s in samples:
        h.record(s)
    values = [h.percentile(p) for p in (1, 25, 50, 75, 99, 100)]
    assert values == sorted(values)
    assert values[-1] <= max(samples)
    assert h.min_ns == min(samples)


def test_percentile_accuracy_within_bucket_resolution():
    h = LatencyHistogram()
    for i in range(1, 1001):
        h.record(i * 100)  # uniform 100..100000
    p50 = h.percentile(50)
    assert 0.9 * 50_000 <= p50 <= 1.1 * 50_000


def test_merge():
    a, b = LatencyHistogram(), LatencyHistogram()
    for i in range(100):
        a.record(10)
    for i in range(100):
        b.record(100_000)
    a.merge(b)
    assert a.count == 200
    assert a.min_ns == 10 and a.max_ns == 100_000
    assert a.percentile(25) < 100
    assert a.percentile(75) > 50_000


@given(samples=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_summary_invariants(samples):
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    summary = h.summary()
    assert summary["count"] == len(samples)
    assert summary["min_ns"] == min(samples)
    assert summary["max_ns"] == max(samples)
    assert summary["mean_ns"] == pytest.approx(sum(samples) / len(samples))
    assert summary["p50_ns"] <= summary["p99_ns"] <= summary["max_ns"]
