"""The percentile rule: report the highest level with ten samples beyond it."""

import statistics

import pytest

import metrics


def test_nearest_rank_percentiles():
    xs = list(range(1, 101))
    assert metrics.percentile(xs, 50) == 50
    assert metrics.percentile(xs, 90) == 90
    assert metrics.percentile(reversed(xs), 99) == 99
    with pytest.raises(ValueError):
        metrics.percentile([], 90)


@pytest.mark.parametrize("n, level, ok", [
    (0, 90, False), (99, 90, False), (100, 90, True), (999, 99, False),
    (1000, 99, True), (9999, 99.9, False), (10000, 99.9, True)])
def test_a_tail_needs_ten_samples_beyond_it(n, level, ok):
    assert metrics.tail_ok(n, level) is ok
    if n:
        assert (metrics.beyond(n, level) >= metrics.MIN_BEYOND) is ok


def test_quartiles_match_statistics_quantiles():
    xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert metrics.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    q1, q2, q3 = metrics.quartiles(xs)
    assert metrics.spread(xs) == pytest.approx((q3 - q1) / q2)
    assert metrics.spread([7.0]) == 0.0
