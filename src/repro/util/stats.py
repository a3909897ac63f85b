"""Small statistics helpers for repeated-trial experiment results.

The paper reports "the mean and the standard deviation" over several hundred
runs; we do the same over a configurable number of seeded trials.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on an empty sequence)."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def pstdev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for a single sample)."""
    values = list(values)
    if not values:
        raise ValueError("pstdev of empty sequence")
    if len(values) == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def summarize(values: Iterable[float]) -> tuple[float, float]:
    """Return ``(mean, population std)`` of the values."""
    values = list(values)
    return mean(values), pstdev(values)


class Histogram:
    """Sparse integer histogram with a fixed bin width.

    Used by the observability layer for queue-depth distributions: bins
    are ``value // bin_width`` and stay sparse, so sampling a depth of
    0 a million times costs one dict slot.  Deterministic iteration
    (sorted bins) keeps exports byte-stable.
    """

    __slots__ = ("bin_width", "_bins", "total")

    def __init__(self, bin_width: int = 1):
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        self.bin_width = bin_width
        self._bins: dict[int, int] = {}
        self.total = 0

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        b = value // self.bin_width
        self._bins[b] = self._bins.get(b, 0) + count
        self.total += count

    def mean(self) -> float:
        """Mean of bin lower bounds, observation-weighted (0.0 if empty)."""
        if not self.total:
            return 0.0
        return sum(b * self.bin_width * c for b, c in self._bins.items()) / self.total

    def quantile(self, q: float) -> int:
        """Smallest bin lower bound covering fraction ``q`` of observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.total:
            return 0
        need = q * self.total
        seen = 0
        for b in sorted(self._bins):
            seen += self._bins[b]
            if seen >= need:
                return b * self.bin_width
        return max(self._bins) * self.bin_width  # pragma: no cover - fp slack

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Histogram n={self.total} bins={len(self._bins)}>"
