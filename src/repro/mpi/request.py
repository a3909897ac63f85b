"""Request objects for nonblocking operations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Status:
    """Completion status of a receive (MPI_Status)."""

    source: int
    tag: int
    nbytes: int


class Request:
    """Base handle for an in-flight nonblocking operation."""

    __slots__ = ("completed", "error", "completed_at")

    def __init__(self):
        self.completed = False
        self.error: Exception | None = None
        self.completed_at: int | None = None

    def _complete(self, now: int | None = None) -> None:
        self.completed = True
        self.completed_at = now

    def _fail(self, error: Exception, now: int | None = None) -> None:
        self.error = error
        self.completed = True
        self.completed_at = now


class SendRequest(Request):
    """Handle for an isend.

    Eager sends complete at local (buffered) completion; rendezvous sends
    complete when the DATA fragment has been injected, with the payload
    parked on the request until the receiver's CTS releases it.
    """

    __slots__ = ("dst", "tag", "nbytes", "seq", "payload")

    def __init__(self, dst: int, tag: int, nbytes: int):
        super().__init__()
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.seq: int | None = None
        self.payload = None


class RecvRequest(Request):
    """Handle for an irecv; completes when matched and delivered."""

    __slots__ = ("src", "tag", "capacity", "data", "status")

    def __init__(self, src: int, tag: int, capacity: int):
        super().__init__()
        self.src = src
        self.tag = tag
        self.capacity = capacity
        self.data = None
        self.status: Status | None = None

