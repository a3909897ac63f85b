"""Run configuration: threading-design knobs and the calibrated cost model.

Every virtual-time cost in the MPI software stack lives in
:class:`CostModel` so that testbed presets (Table I) and implementation
profiles (Figure 5 baselines) are *data*, not code.  The defaults are
calibrated so that the simulated Multirate/RMA-MT rates land in the same
regime as the paper's measurements (hundreds of thousands to a few million
messages per second for two-sided; tens of millions peak for RMA).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.simthread.sync import LockCosts

ROUND_ROBIN = "round_robin"
DEDICATED = "dedicated"
SERIAL = "serial"
CONCURRENT = "concurrent"

_ASSIGNMENTS = (ROUND_ROBIN, DEDICATED)
_PROGRESS_MODES = (SERIAL, CONCURRENT)


@dataclass(frozen=True)
class CostModel:
    """All software costs, in virtual nanoseconds.

    Grouped by the code path they model; see DESIGN.md section 5 for the
    calibration rationale.  ``host_gap_ns`` models the per-process shared
    memory/allocator/coherence bottleneck: no two messages can be fully
    processed by one process closer together than this gap, which is what
    ultimately caps a 20-thread process below 20 independent processes
    (the paper's unexplained high-thread-count saturation in Fig. 3c and
    the thread-vs-process gap in Fig. 5).
    """

    # -- synchronization ------------------------------------------------
    atomic_rmw_ns: int = 30
    lock_acquire_ns: int = 25
    lock_contended_ns: int = 180
    lock_release_ns: int = 15
    lock_tryfail_ns: int = 35
    #: futex-convoy cost: extra handoff latency per thread still queued on
    #: the mutex at grant time (scheduler wakeups, cache-line storms).
    lock_contended_per_waiter_ns: int = 320
    #: cache migration penalty charged when the *matching* structures are
    #: touched by a different thread than last time while still hot in the
    #: previous thread's cache (Table II's 3x match time under concurrent
    #: progress emerges from this).
    match_migration_ns: int = 1800
    #: how long the matching working set stays hot after a match; a touch
    #: by a different thread after this window misses cache regardless of
    #: core, so no *extra* migration penalty applies.
    match_hot_window_ns: int = 3000
    #: penalty when a thread communicates on a different CRI than its
    #: previous operation (endpoint/cache working-set switch).
    instance_switch_ns: int = 150
    # -- two-sided send path --------------------------------------------
    send_path_ns: int = 450
    recv_post_ns: int = 400
    request_complete_ns: int = 70
    wait_poll_ns: int = 50
    wait_backoff_ns: int = 1500
    # -- progress engine -------------------------------------------------
    cq_poll_ns: int = 60
    cq_event_ns: int = 150
    progress_empty_ns: int = 25
    # -- matching ---------------------------------------------------------
    match_base_ns: int = 400
    seq_validate_ns: int = 80
    match_search_per_elem_ns: int = 3
    match_deliver_ns: int = 350
    oos_insert_ns: int = 150
    oos_lookup_ns: int = 60
    unexpected_insert_ns: int = 200
    # -- rendezvous protocol ------------------------------------------------
    #: messages larger than this go RTS/CTS/DATA instead of eagerly
    eager_limit_bytes: int = 8192
    #: software handling of one RTS match or CTS (scheduling the reply)
    rndv_handshake_ns: int = 260
    #: per-byte cost of landing bulk payload in the user buffer
    copy_per_byte_ns: float = 0.03
    # -- per-process shared host bottleneck -------------------------------
    host_gap_ns: int = 340
    # -- one-sided ---------------------------------------------------------
    rma_instance_switch_ns: int = 1500
    rma_put_post_ns: int = 1600
    rma_get_post_ns: int = 1700
    rma_acc_post_ns: int = 1850
    rma_flush_ns: int = 400
    rma_flush_backoff_ns: int = 900

    def lock_costs(self, migration_ns: int = 0) -> LockCosts:
        """Plain mutex costs (match locks, windows, miscellany).

        Short memory-only critical sections hand off without the convoy
        term: the paper's SPC data shows per-message match time stays
        ~1us under serial progress even at 90% out-of-sequence, so the
        match lock must not convoy.
        """
        return LockCosts(
            acquire_ns=self.lock_acquire_ns,
            contended_ns=self.lock_contended_ns,
            release_ns=self.lock_release_ns,
            tryfail_ns=self.lock_tryfail_ns,
            migration_ns=migration_ns,
        )

    def cri_lock_costs(self) -> LockCosts:
        """Instance (network context) lock costs, including the convoy.

        The paper: "threads sharing the same instance will continuously
        fight for the same protection lock, and the lock will therefore
        always be contested" -- the TX path's doorbell/driver work makes
        contended handoffs progressively costlier as the wait queue
        deepens, which is what sinks the single-instance red lines in
        Figures 3a and 6/7.
        """
        return LockCosts(
            acquire_ns=self.lock_acquire_ns,
            contended_ns=self.lock_contended_ns,
            release_ns=self.lock_release_ns,
            tryfail_ns=self.lock_tryfail_ns,
            contended_per_waiter_ns=self.lock_contended_per_waiter_ns,
        )

    #: fields that are sizes/thresholds, not times: never scaled.
    _NON_TIME_FIELDS = frozenset({"eager_limit_bytes"})

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly derate every time cost (e.g. slow KNL cores)."""
        fields = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, int) and f.name not in self._NON_TIME_FIELDS:
                fields[f.name] = int(v * factor)
            else:
                fields[f.name] = v
        return CostModel(**fields)

    def with_overrides(self, **kwargs) -> "CostModel":
        """Copy with some cost fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ThreadingConfig:
    """The three design knobs a run selects (paper section III).

    Attributes
    ----------
    num_instances:
        How many CRIs each MPI process allocates.  1 reproduces the
        original (pre-CRI) Open MPI design.
    assignment:
        ``'round_robin'`` or ``'dedicated'`` (Algorithm 1).
    progress:
        ``'serial'`` (traditional single-thread progress) or
        ``'concurrent'`` (Algorithm 2).
    """

    num_instances: int = 1
    assignment: str = DEDICATED
    progress: str = SERIAL

    def __post_init__(self):
        if self.num_instances < 1:
            raise ValueError("num_instances must be >= 1")
        if self.assignment not in _ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {_ASSIGNMENTS}, got {self.assignment!r}")
        if self.progress not in _PROGRESS_MODES:
            raise ValueError(f"progress must be one of {_PROGRESS_MODES}, got {self.progress!r}")
