"""Fenwick tree: correctness against a naive model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.fenwick import FenwickTree


def test_basic_prefix_sums():
    t = FenwickTree(8)
    t.add(0, 1)
    t.add(3, 2)
    t.add(7, 5)
    assert t.prefix_sum(0) == 1
    assert t.prefix_sum(2) == 1
    assert t.prefix_sum(3) == 3
    assert t.prefix_sum(7) == 8
    assert t.total == 8


def test_count_before():
    t = FenwickTree()
    for i in (2, 5, 9):
        t.add(i)
    assert t.count_before(0) == 0
    assert t.count_before(2) == 0
    assert t.count_before(3) == 1
    assert t.count_before(9) == 2
    assert t.count_before(100) == 3


def test_negative_index_rejected():
    t = FenwickTree()
    with pytest.raises(IndexError):
        t.add(-1)
    assert t.prefix_sum(-1) == 0


def test_growth_preserves_content():
    t = FenwickTree(4)
    for i in range(4):
        t.add(i)
    t.add(1000)  # forces growth
    assert t.total == 5
    assert t.prefix_sum(3) == 4
    assert t.count_before(1000) == 4


def test_removal():
    t = FenwickTree()
    t.add(5)
    t.add(6)
    t.add(5, -1)
    assert t.total == 1
    assert t.count_before(7) == 1


@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 300)),
                    min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_matches_naive_model(ops):
    t = FenwickTree(4)
    naive = [0] * 301
    for is_add, idx in ops:
        if is_add:
            t.add(idx, 1)
            naive[idx] += 1
        else:
            if naive[idx] > 0:
                t.add(idx, -1)
                naive[idx] -= 1
    for probe in (0, 1, 50, 150, 300):
        assert t.prefix_sum(probe) == sum(naive[:probe + 1])
        assert t.count_before(probe) == sum(naive[:probe])
    assert t.total == sum(naive)
