"""RMA windows: exposed memory plus epoch and completion bookkeeping.

Each member of the communicator exposes ``size_bytes`` of memory (a
``bytearray``; accumulates cast a typed ``memoryview`` of it in place).  The
window tracks, per *initiator* process and per target, the set of
outstanding operations -- that is what ``MPI_Win_flush`` completes -- and
which initiators hold an open ``lock_all`` access epoch.

Keying the outstanding sets by target keeps every count a ``len``, never
a scan: flush polls the count on each progress round (see
:meth:`Window.outstanding`).

The only epoch is the shared passive-target ``lock_all`` epoch RMA-MT
opens: an op needs one, and a second open or an unmatched close is an
error.  No lock is arbitrated between origins; the paper's workloads
synchronize with flush only.  See DESIGN.md substitutions.
"""

from __future__ import annotations

from repro.mpi.errors import EpochError, RankError
from repro.netsim.rdma import RmaOp


class WindowOp(RmaOp):
    """An RMA operation bound to a window and target."""

    __slots__ = ("window", "origin", "target", "target_offset")

    def __init__(self, kind: str, nbytes: int, window: "Window", origin: int,
                 target: int, target_offset: int, remote_fn=None):
        super().__init__(kind, nbytes, remote_fn=remote_fn)
        self.window = window
        self.origin = origin
        self.target = target
        self.target_offset = target_offset
        self.on_completed = self._retire

    def _retire(self) -> None:
        # discard, not remove: a transport failure and a completion may both
        # retire the same op
        self.window._pending[self.origin][self.target].discard(self)


class Window:
    """One RMA window across the members of a communicator."""

    _next_id = 0

    def __init__(self, world, comm, size_bytes: int):
        if size_bytes < 0:
            raise ValueError("window size must be >= 0")
        self.world = world
        self.comm = comm
        self.size_bytes = size_bytes
        self.id = Window._next_id
        Window._next_id += 1
        self.buffers: dict[int, bytearray] = {
            rank: bytearray(size_bytes) for rank in comm.ranks
        }
        # per-initiator, per-target in-flight ops
        self._pending: dict[int, dict[int, set]] = {
            origin: {target: set() for target in comm.ranks}
            for origin in comm.ranks
        }
        # initiators holding an open lock_all epoch
        self._locked_all: set[int] = set()
        # per-initiator transport errors awaiting the next flush
        self._errors: dict[int, list] = {rank: [] for rank in comm.ranks}

    # ------------------------------------------------------------------
    def buffer(self, rank: int) -> bytearray:
        """The window memory exposed by ``rank``."""
        try:
            return self.buffers[rank]
        except KeyError:
            raise RankError(f"rank {rank} is not in window {self.id}'s group") from None

    def check_range(self, rank: int, offset: int, nbytes: int) -> None:
        """Raise ValueError if an access falls outside the window bounds."""
        if offset < 0 or offset + nbytes > self.size_bytes:
            raise ValueError(
                f"RMA access [{offset}, {offset + nbytes}) outside window of "
                f"{self.size_bytes} bytes at rank {rank}")

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def open_epoch(self, origin: int) -> None:
        """Open ``origin``'s lock_all access epoch."""
        if origin in self._locked_all:
            raise EpochError(f"rank {origin} already holds a lock_all epoch")
        self._locked_all.add(origin)

    def close_epoch(self, origin: int) -> None:
        """Close ``origin``'s lock_all access epoch."""
        if origin not in self._locked_all:
            raise EpochError(f"rank {origin} has no open epoch to close")
        self._locked_all.discard(origin)

    def require_epoch(self, origin: int, target: int) -> None:
        """Raise EpochError unless ``origin`` holds a lock_all epoch."""
        if origin not in self._locked_all:
            raise EpochError(
                f"rank {origin} issued an RMA op to {target} without an "
                f"access epoch (win_lock_all required)")

    # ------------------------------------------------------------------
    # completion tracking
    # ------------------------------------------------------------------
    def track(self, op: WindowOp) -> None:
        """Register an in-flight RMA op for completion accounting."""
        self._pending[op.origin][op.target].add(op)

    def outstanding(self, origin: int, target: int | None = None) -> int:
        """Count ``origin``'s in-flight ops (optionally to one ``target``).

        O(1) for one target, O(members) for all: ``ops.flush`` polls this
        every progress round, so it must not scan the pending ops (flush
        checks ``target`` is a member once, before it polls)."""
        pending = self._pending[origin]
        if target is None:
            return sum(map(len, pending.values()))
        return len(pending[target])

    def note_error(self, origin: int, error: Exception) -> None:
        """Record a transport failure for ``origin``'s next flush
        (ERRORS_RETURN path; see :meth:`MpiProcess._dispatch`)."""
        self._errors[origin].append(error)

    def take_errors(self, origin: int) -> list:
        """Drain and return the errors recorded for ``origin``."""
        errors, self._errors[origin] = self._errors[origin], []
        return errors

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Window id={self.id} size={self.size_bytes}B comm={self.comm.name}>"
