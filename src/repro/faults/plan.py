"""Deterministic fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a *pure description* of the misbehaviour injected
into one run: per-frame packet faults (drop / duplicate / corrupt /
delay-spike), virtual-time windows during which a link degrades further,
and permanent NIC-context failures pinned to a virtual time.  The plan
carries its own seed; all fault decisions are drawn from a private
``random.Random(plan.seed)`` inside the transport layer, never from the
scheduler's stream -- so attaching a plan cannot perturb the schedule of
a run that the plan's rates never touch, and two runs with the same
``(scheduler seed, plan)`` pair are byte-identical.

A run with *no* plan attached executes the exact pre-fault code path:
no frames, no acks, no timers.  The reliability machinery only exists
once a plan is installed (see :func:`repro.faults.install.install_faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass(frozen=True)
class RetransmitPolicy:
    """Ack/retransmit tuning for the reliable transport.

    ``timeout_ns`` is the base virtual-time wait for the first ack;
    every retransmission multiplies it by ``backoff`` and adds a seeded
    jitter of up to ``jitter_ns`` (decorrelating retry storms).  After
    ``max_retries`` retransmissions the frame is abandoned and an error
    completion is pushed to the sender's CQ.
    """

    timeout_ns: int = 15_000
    backoff: float = 2.0
    max_retries: int = 6
    jitter_ns: int = 2_000

    def __post_init__(self):
        if self.timeout_ns < 1:
            raise ValueError("timeout_ns must be >= 1")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_retries < 0 or self.jitter_ns < 0:
            raise ValueError("max_retries and jitter_ns must be >= 0")

    def timeout_for(self, attempt: int) -> int:
        """Base timeout (before jitter) for transmission ``attempt`` (1-based)."""
        return int(self.timeout_ns * self.backoff ** (attempt - 1))


@dataclass(frozen=True)
class DegradeWindow:
    """A virtual-time interval during which the fabric misbehaves more.

    While ``start_ns <= now < end_ns`` the plan's drop rate is multiplied
    by ``drop_factor`` (capped at 1.0) and every delivery gains
    ``extra_delay_ns`` -- a brown-out, not an outage.
    """

    start_ns: int
    end_ns: int
    drop_factor: float = 1.0
    extra_delay_ns: int = 0

    def __post_init__(self):
        if self.end_ns <= self.start_ns:
            raise ValueError("degrade window must end after it starts")
        if self.drop_factor < 0 or self.extra_delay_ns < 0:
            raise ValueError("drop_factor and extra_delay_ns must be >= 0")

    def covers(self, now: int) -> bool:
        """Whether virtual time ``now`` falls inside the window."""
        return self.start_ns <= now < self.end_ns


@dataclass(frozen=True)
class ContextFailure:
    """Permanent death of one NIC context at a virtual time.

    ``rank`` names the owning process; ``instance`` is the creation index
    of the CRI whose context dies.  The pool drains the dead instance and
    re-runs Algorithm 1 assignment over the survivors.
    """

    at_ns: int
    rank: int
    instance: int

    def __post_init__(self):
        if self.at_ns < 0:
            raise ValueError("failure time must be >= 0")
        if self.rank < 0 or self.instance < 0:
            raise ValueError("rank and instance must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """One run's complete fault schedule (deterministic given ``seed``)."""

    seed: int = 0
    #: per-frame probability the data copy vanishes on the wire
    drop_rate: float = 0.0
    #: per-frame probability a second copy is delivered
    dup_rate: float = 0.0
    #: per-frame probability the copy arrives checksum-broken (discarded
    #: by the receiver; recovered by retransmission, like a drop but the
    #: wire/delivery time is still spent)
    corrupt_rate: float = 0.0
    #: per-frame probability of a latency spike of ``delay_spike_ns``
    delay_spike_rate: float = 0.0
    delay_spike_ns: int = 20_000
    #: per-ack probability the ack is lost (sender retries, receiver dedups)
    ack_drop_rate: float = 0.0
    degrade_windows: tuple = ()
    context_failures: tuple = ()
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)

    def __post_init__(self):
        _check_rate("drop_rate", self.drop_rate)
        _check_rate("dup_rate", self.dup_rate)
        _check_rate("corrupt_rate", self.corrupt_rate)
        _check_rate("delay_spike_rate", self.delay_spike_rate)
        _check_rate("ack_drop_rate", self.ack_drop_rate)
        if self.delay_spike_ns < 0:
            raise ValueError("delay_spike_ns must be >= 0")
        if (self.drop_rate + self.dup_rate + self.corrupt_rate
                + self.delay_spike_rate) > 1.0:
            raise ValueError("packet fault rates must sum to <= 1.0 "
                             "(they are exclusive outcomes per frame)")
        for w in self.degrade_windows:
            if not isinstance(w, DegradeWindow):
                raise TypeError(f"degrade_windows entries must be DegradeWindow, "
                                f"got {type(w).__name__}")
        for f in self.context_failures:
            if not isinstance(f, ContextFailure):
                raise TypeError(f"context_failures entries must be ContextFailure, "
                                f"got {type(f).__name__}")

    def with_overrides(self, **kwargs) -> "FaultPlan":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)

    @property
    def has_packet_faults(self) -> bool:
        """Whether any per-frame fault can fire (arms the reliable transport)."""
        return (self.drop_rate > 0 or self.dup_rate > 0 or self.corrupt_rate > 0
                or self.delay_spike_rate > 0 or self.ack_drop_rate > 0
                or bool(self.degrade_windows))


def drop_plan(rate: float, seed: int = 0, **kwargs) -> FaultPlan:
    """Shorthand for the most common plan: uniform packet loss."""
    return FaultPlan(seed=seed, drop_rate=rate, **kwargs)
