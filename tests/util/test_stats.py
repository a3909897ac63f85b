"""Statistics helpers."""

import math

import pytest

from repro.util.stats import Histogram, mean, pstdev, summarize


def test_mean():
    assert mean([1, 2, 3]) == 2.0
    with pytest.raises(ValueError):
        mean([])


def test_pstdev():
    assert pstdev([5]) == 0.0
    assert math.isclose(pstdev([2, 4]), 1.0)
    with pytest.raises(ValueError):
        pstdev([])


def test_summarize():
    m, s = summarize([10, 10, 10])
    assert (m, s) == (10.0, 0.0)


class TestHistogram:
    def test_add_and_counts_sorted(self):
        h = Histogram()
        for v in (3, 1, 1, 0):
            h.add(v)
        h.add(5, count=2)
        assert h.total == 6
        assert h.mean() == 2.5
        assert [h.quantile(q) for q in (1 / 6, 0.5, 4 / 6, 1.0)] \
            == [0, 1, 3, 5]

    def test_bin_width(self):
        h = Histogram(bin_width=10)
        h.add(3)
        h.add(9)
        h.add(17)
        assert h.quantile(0.5) == 0 and h.quantile(1.0) == 10
        assert math.isclose(h.mean(), 10 / 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0)
        with pytest.raises(ValueError):
            Histogram().add(-1)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_mean_and_quantiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.add(v)
        assert math.isclose(h.mean(), 50.5)
        assert h.quantile(0.0) == 1
        assert h.quantile(0.5) == 50
        assert h.quantile(0.99) == 99
        assert h.quantile(1.0) == 100

    def test_empty(self):
        h = Histogram()
        assert h.mean() == 0.0
        assert h.quantile(0.5) == 0
        assert h.total == 0

    def test_single_sample_quantiles(self):
        h = Histogram()
        h.add(42)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 42
        assert h.mean() == 42.0

    def test_duplicate_heavy_quantiles(self):
        # one dominant value plus rare outliers: every mid quantile
        # lands on the mode, only the extreme tail sees the outlier
        h = Histogram()
        h.add(7, count=998)
        h.add(0)
        h.add(1000)
        assert h.quantile(0.001) == 0
        assert h.quantile(0.5) == 7
        assert h.quantile(0.99) == 7
        assert h.quantile(1.0) == 1000
