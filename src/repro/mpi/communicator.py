"""Communicators: the matching scope of two-sided MPI.

A communicator is a *global descriptor* (id, member ranks, info); each
member process lazily builds its own per-communicator state (matching
engine, send sequence counters) the first time the communicator is used
there.  That per-communicator state is exactly why the paper can simulate
concurrent matching with OB1: one communicator per thread pair means one
matching lock per thread pair.
"""

from __future__ import annotations

from repro.mpi.constants import ANY_SOURCE
from repro.mpi.errors import (
    ERRHANDLERS,
    ERRORS_ARE_FATAL,
    CommunicatorError,
    RankError,
)
from repro.mpi.info import Info


class Communicator:
    """Global communicator descriptor."""

    __slots__ = ("world", "id", "ranks", "info", "name", "_rank_set",
                 "errhandler")

    def __init__(self, world, comm_id: int, ranks: tuple[int, ...],
                 info: Info | None = None, name: str = ""):
        if len(ranks) != len(set(ranks)):
            raise CommunicatorError(f"duplicate ranks in communicator: {ranks}")
        if not ranks:
            raise CommunicatorError("communicator must have at least one member")
        self.world = world
        self.id = comm_id
        self.ranks = tuple(ranks)
        self._rank_set = frozenset(ranks)
        self.info = info or Info()
        self.name = name or f"comm-{comm_id}"
        #: MPI_ERRORS_ARE_FATAL analogue (the MPI default): transport
        #: failures raise out of the progress engine and abort the run.
        self.errhandler = ERRORS_ARE_FATAL

    def set_errhandler(self, handler: str) -> None:
        """MPI_Comm_set_errhandler analogue; see :mod:`repro.mpi.errors`."""
        if handler not in ERRHANDLERS:
            raise ValueError(f"errhandler must be one of {ERRHANDLERS}, "
                             f"got {handler!r}")
        self.errhandler = handler

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of member ranks."""
        return len(self.ranks)

    @property
    def allow_overtaking(self) -> bool:
        """Whether the allow-overtaking info hint is set on this comm."""
        return self.info.allow_overtaking

    def check_member(self, world_rank: int, what: str = "rank") -> None:
        """Raise RankError unless ``world_rank`` is a member (or ANY_SOURCE)."""
        if world_rank != ANY_SOURCE and world_rank not in self._rank_set:
            raise RankError(f"{what} {world_rank} is not a member of {self.name} "
                            f"(members: {self.ranks})")

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Communicator {self.name} id={self.id} size={self.size}>"
