"""Lock blame: who waited on whom, and convoy detection.

Each lock's trace track carries *hold* spans (named after the holding
thread); each thread's track carries *wait* spans (``wait <lock>``,
category ``lock-wait``).  Blame attributes every nanosecond of every
wait span to the hold spans overlapping it on the lock's track -- the
paper's "matching time exploded because the match lock was held by
progress threads" argument, made quantitative per (lock, waiter,
holder) triple.

Convoys -- the futex pathology behind the paper's single-CRI collapse
-- are detected per lock as maximal intervals with two or more
simultaneous waiters.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.obs.analyze.model import Span, TraceModel


@dataclass
class LockStats:
    """Aggregate view of one lock track."""

    label: str
    hold_ns: int = 0
    wait_ns: int = 0
    acquisitions: int = 0
    contended: int = 0
    waits: int = 0
    max_waiters: int = 0
    convoy_episodes: int = 0
    convoy_ns: int = 0          #: time with >= 2 simultaneous waiters
    #: (waiter label, holder label) -> [blamed_ns, wait count]
    blame: dict = field(default_factory=dict)


def _waits_by_lock(model: TraceModel) -> dict[str, list[tuple[Span, str]]]:
    """Lock label -> [(wait span, waiter label)].

    A wait span's ``lock`` arg is its lock's (unique) track label.
    """
    out: dict[str, list[tuple[Span, str]]] = {}
    for wait in model.spans_in_cat("lock-wait"):
        out.setdefault(wait.arg("lock"), []).append(
            (wait, model.label(wait.tid)))
    return out


def _convoys(waits: list[Span]) -> tuple[int, int, int]:
    """(max simultaneous waiters, episodes with >= 2, total ns >= 2)."""
    events: list[tuple[int, int]] = []
    for w in waits:
        events.append((w.start_ns, 1))
        events.append((w.end_ns, -1))
    # Ends sort before starts at equal timestamps: a handoff at time t
    # is not an overlap.
    events.sort(key=lambda e: (e[0], e[1]))
    depth = max_depth = episodes = convoy_ns = 0
    episode_start = None
    for ts, delta in events:
        prev = depth
        depth += delta
        max_depth = max(max_depth, depth)
        if prev < 2 <= depth:
            episodes += 1
            episode_start = ts
        elif prev >= 2 > depth:
            convoy_ns += ts - episode_start
            episode_start = None
    return max_depth, episodes, convoy_ns


def lock_blame(model: TraceModel) -> list[LockStats]:
    """Per-lock aggregate stats + blame tables, sorted by wait time.

    Sort order is (descending total wait, label) so the heaviest
    contention leads the report deterministically.
    """
    spans_by_tid = model.spans_by_tid()
    waits_by_lock = _waits_by_lock(model)
    out: list[LockStats] = []
    for track in model.lock_tracks():
        stats = LockStats(label=track.label)
        holds = [s for s in spans_by_tid.get(track.tid, []) if s.cat == "hold"]
        for h in holds:
            stats.hold_ns += h.dur_ns
            stats.acquisitions += 1
            if h.arg("contended"):
                stats.contended += 1
        # Holds on one mutex track never overlap, so the holds
        # overlapping a wait form a contiguous run: bisect to its start
        # instead of scanning every hold per wait.
        hold_ends = [h.end_ns for h in holds]
        waits = waits_by_lock.get(track.label, [])
        for wait, waiter in waits:
            stats.wait_ns += wait.dur_ns
            stats.waits += 1
            blamed = 0
            i = bisect.bisect_right(hold_ends, wait.start_ns)
            while i < len(holds) and holds[i].start_ns < wait.end_ns:
                h = holds[i]
                i += 1
                overlap = (min(wait.end_ns, h.end_ns)
                           - max(wait.start_ns, h.start_ns))
                if overlap > 0 and h.name != waiter:
                    cell = stats.blame.setdefault((waiter, h.name), [0, 0])
                    cell[0] += overlap
                    cell[1] += 1
                    blamed += overlap
            unattributed = wait.dur_ns - blamed
            if unattributed > 0:
                cell = stats.blame.setdefault((waiter, "(free/handoff)"),
                                              [0, 0])
                cell[0] += unattributed
                cell[1] += 1
        (stats.max_waiters, stats.convoy_episodes,
         stats.convoy_ns) = _convoys([w for w, _ in waits])
        if stats.acquisitions or stats.waits:
            out.append(stats)
    out.sort(key=lambda s: (-s.wait_ns, s.label))
    return out
