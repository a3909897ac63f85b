"""Match queues with wildcard search and scan-depth accounting.

A real OB1-style matching engine keeps the posted-receive queue and the
unexpected-message queue as linked lists and pays a linear scan per match.
We need two things from the structure:

1. the *correct* MPI match: the oldest live entry compatible with the
   query, honoring ``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``;
2. the *scan depth* a linear implementation would traverse, so the cost
   model can charge it in virtual time.

To keep host time sublinear while virtual time stays faithful, entries
live in per-``(src, tag)`` buckets (FIFO each) and a Fenwick tree over
insertion ids counts live predecessors in O(log n).

Two flavors share the class:

* ``entry_wildcards=True`` -- the posted-receive queue: entries may carry
  wildcards, queries (incoming messages) are concrete.
* ``entry_wildcards=False`` -- the unexpected-message queue: entries are
  concrete, queries (newly posted receives) may carry wildcards.
"""

from __future__ import annotations

from collections import deque

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.util.fenwick import FenwickTree


class MatchQueue:
    """Ordered queue of (src, tag, item) supporting oldest-match queries."""

    __slots__ = ("_buckets", "_live", "_next_id", "entry_wildcards", "inserted", "matched")

    def __init__(self, entry_wildcards: bool):
        self._buckets: dict[tuple[int, int], deque] = {}
        self._live = FenwickTree()
        self._next_id = 0
        self.entry_wildcards = entry_wildcards
        self.inserted = 0
        self.matched = 0

    def __len__(self) -> int:
        return self._live.total

    # ------------------------------------------------------------------
    def insert(self, src: int, tag: int, item) -> int:
        """Append an entry; returns its insertion id."""
        if not self.entry_wildcards and (src == ANY_SOURCE or tag == ANY_TAG):
            raise ValueError("unexpected-message queue entries must be concrete")
        entry_id = self._next_id
        self._next_id += 1
        bucket = self._buckets.get((src, tag))
        if bucket is None:
            bucket = deque()
            self._buckets[(src, tag)] = bucket
        bucket.append((entry_id, item))
        self._live.add(entry_id, 1)
        self.inserted += 1
        return entry_id

    # ------------------------------------------------------------------
    def _candidate_buckets(self, src: int, tag: int):
        if self.entry_wildcards:
            # Concrete query against possibly-wildcard entries.
            keys = ((src, tag), (src, ANY_TAG), (ANY_SOURCE, tag), (ANY_SOURCE, ANY_TAG))
            for key in keys:
                bucket = self._buckets.get(key)
                if bucket:
                    yield bucket
        else:
            # Possibly-wildcard query against concrete entries.
            if src != ANY_SOURCE and tag != ANY_TAG:
                bucket = self._buckets.get((src, tag))
                if bucket:
                    yield bucket
            else:
                for (esrc, etag), bucket in self._buckets.items():
                    if not bucket:
                        continue
                    if (src == ANY_SOURCE or esrc == src) and (tag == ANY_TAG or etag == tag):
                        yield bucket

    def match(self, src: int, tag: int):
        """Remove and return the oldest compatible entry.

        Returns ``(item, scan_depth)`` or ``None``.  ``scan_depth`` is the
        1-based number of entries a linear scan from the head would have
        visited to reach the match.
        """
        best_bucket = None
        best_id = None
        for bucket in self._candidate_buckets(src, tag):
            head_id = bucket[0][0]
            if best_id is None or head_id < best_id:
                best_id = head_id
                best_bucket = bucket
        if best_bucket is None:
            return None
        entry_id, item = best_bucket.popleft()
        scan_depth = self._live.count_before(entry_id) + 1
        self._live.add(entry_id, -1)
        self.matched += 1
        return item, scan_depth

    def items(self) -> list:
        """All live entries in insertion order (diagnostics/tests)."""
        everything = []
        for (src, tag), bucket in self._buckets.items():
            for entry_id, item in bucket:
                everything.append((entry_id, src, tag, item))
        everything.sort(key=lambda e: e[0])
        return everything
