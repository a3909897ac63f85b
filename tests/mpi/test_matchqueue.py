"""Match queues: MPI matching rules, wildcards, scan-depth accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.matchqueue import MatchQueue


class TestPostedQueue:
    """entry_wildcards=True: posted receives (entries may hold ANY)."""

    def test_exact_match_fifo(self):
        q = MatchQueue(entry_wildcards=True)
        q.insert(0, 5, "first")
        q.insert(0, 5, "second")
        item, depth = q.match(0, 5)
        assert item == "first" and depth == 1
        item, depth = q.match(0, 5)
        assert item == "second" and depth == 1
        assert q.match(0, 5) is None

    def test_wildcard_entry_matches_concrete_query(self):
        q = MatchQueue(entry_wildcards=True)
        q.insert(ANY_SOURCE, ANY_TAG, "wild")
        assert q.match(3, 7)[0] == "wild"

    def test_oldest_wins_across_wildcard_and_exact(self):
        q = MatchQueue(entry_wildcards=True)
        q.insert(0, ANY_TAG, "older-wild")
        q.insert(0, 5, "newer-exact")
        assert q.match(0, 5)[0] == "older-wild"

        q2 = MatchQueue(entry_wildcards=True)
        q2.insert(0, 5, "older-exact")
        q2.insert(0, ANY_TAG, "newer-wild")
        assert q2.match(0, 5)[0] == "older-exact"

    def test_scan_depth_counts_live_predecessors(self):
        q = MatchQueue(entry_wildcards=True)
        for tag in (1, 1, 1, 2):
            q.insert(0, tag, f"t{tag}")
        item, depth = q.match(0, 2)
        assert item == "t2" and depth == 4  # walked past three tag-1 entries
        item, depth = q.match(0, 1)
        assert depth == 1

    def test_no_match_returns_none(self):
        q = MatchQueue(entry_wildcards=True)
        q.insert(0, 1, "x")
        assert q.match(1, 1) is None
        assert q.match(0, 2) is None
        assert len(q) == 1


class TestUnexpectedQueue:
    """entry_wildcards=False: unexpected messages (queries may hold ANY)."""

    def test_wildcard_query(self):
        q = MatchQueue(entry_wildcards=False)
        q.insert(2, 9, "m1")
        q.insert(3, 9, "m2")
        item, _ = q.match(ANY_SOURCE, 9)
        assert item == "m1"  # oldest
        item, _ = q.match(3, ANY_TAG)
        assert item == "m2"

    def test_entries_must_be_concrete(self):
        q = MatchQueue(entry_wildcards=False)
        with pytest.raises(ValueError):
            q.insert(ANY_SOURCE, 1, "bad")
        with pytest.raises(ValueError):
            q.insert(1, ANY_TAG, "bad")

    def test_fully_wild_query_takes_oldest_overall(self):
        q = MatchQueue(entry_wildcards=False)
        q.insert(5, 5, "a")
        q.insert(1, 1, "b")
        assert q.match(ANY_SOURCE, ANY_TAG)[0] == "a"


def test_items_in_insertion_order():
    q = MatchQueue(entry_wildcards=True)
    q.insert(0, 2, "a")
    q.insert(1, 1, "b")
    q.insert(0, 2, "c")
    assert [e[3] for e in q.items()] == ["a", "b", "c"]


class NaiveQueue:
    """Reference model: a plain ordered list with a linear scan."""

    def __init__(self, entry_wildcards):
        self.entries = []
        self.entry_wildcards = entry_wildcards
        self._id = 0

    def insert(self, src, tag, item):
        self.entries.append((self._id, src, tag, item))
        self._id += 1

    def match(self, src, tag):
        for pos, (eid, esrc, etag, item) in enumerate(self.entries):
            if self.entry_wildcards:
                ok = (esrc in (ANY_SOURCE, src)) and (etag in (ANY_TAG, tag))
            else:
                ok = (src in (ANY_SOURCE, esrc)) and (tag in (ANY_TAG, etag))
            if ok:
                del self.entries[pos]
                return item, pos + 1
        return None


@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("ins"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("match"), st.integers(0, 3), st.integers(0, 3)),
    ),
    min_size=1, max_size=120),
    wildcards=st.booleans())
@settings(max_examples=80, deadline=None)
def test_matchqueue_equals_naive_model(ops, wildcards):
    real = MatchQueue(entry_wildcards=wildcards)
    naive = NaiveQueue(entry_wildcards=wildcards)
    counter = 0
    for op in ops:
        kind, src, tag = op
        if kind == "ins":
            if not wildcards and (src == 3 or tag == 3):
                continue  # keep entries concrete in unexpected mode
            src_v = ANY_SOURCE if (wildcards and src == 3) else src
            tag_v = ANY_TAG if (wildcards and tag == 3) else tag
            real.insert(src_v, tag_v, counter)
            naive.insert(src_v, tag_v, counter)
            counter += 1
        else:
            src_q = ANY_SOURCE if (not wildcards and src == 3) else src
            tag_q = ANY_TAG if (not wildcards and tag == 3) else tag
            if not wildcards or (src_q != ANY_SOURCE and tag_q != ANY_TAG):
                assert real.match(src_q, tag_q) == naive.match(src_q, tag_q)
    assert len(real) == len(naive.entries)
