"""One-sided (RDMA) operations.

The defining property of RMA for the paper's study: the target CPU never
participates.  The remote side-effect runs as a hardware (callback) event,
and the initiator learns of completion from a hardware completion counter
(another callback), never from a CQ.  There is no matching, hence no
matching bottleneck -- which is why dedicated CRIs let RMA scale almost
perfectly with threads (Figures 6 and 7).
"""

from __future__ import annotations

PUT = "put"
GET = "get"
ACC = "accumulate"

_KINDS = (PUT, GET, ACC)


class RmaOp:
    """One outstanding one-sided operation.

    Subclasses (or callers via ``remote_fn``) define the remote
    side-effect; the base class tracks lifecycle and sizes.  ``completed``
    flips when the hardware completion counter registers the remote ack
    (no progress-engine involvement -- see
    :meth:`~repro.netsim.context.NetworkContext.post_rma`), and
    ``on_completed`` fires at that instant.
    """

    __slots__ = ("kind", "nbytes", "remote_fn", "result", "issued_at",
                 "remote_applied_at", "completed", "tagdata", "on_completed",
                 "error")

    def __init__(self, kind: str, nbytes: int, remote_fn=None, tagdata=None):
        if kind not in _KINDS:
            raise ValueError(f"RMA kind must be one of {_KINDS}, got {kind!r}")
        if nbytes < 0:
            raise ValueError("RMA size must be >= 0")
        self.kind = kind
        self.nbytes = nbytes
        self.remote_fn = remote_fn
        self.result = None
        self.issued_at: int | None = None
        self.remote_applied_at: int | None = None
        self.completed = False
        self.tagdata = tagdata
        #: optional callback fired at hardware-counter completion
        self.on_completed = None
        #: transport failure that killed this op (retry budget exhausted)
        self.error: Exception | None = None

    @property
    def is_get(self) -> bool:
        """Whether this op reads from the target (get vs put/accumulate)."""
        return self.kind == GET

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire: header plus payload (gets send only the header)."""
        return 16 if self.is_get else self.nbytes + 16

    def apply_remote(self) -> None:
        """Hardware event at the target NIC (no target CPU)."""
        if self.remote_fn is not None:
            self.result = self.remote_fn(self)

    def mark_completed(self, now: int) -> None:
        """Local completion (the initiator may now count it flushed)."""
        self.completed = True
        self.remote_applied_at = self.remote_applied_at or now

    def __repr__(self):  # pragma: no cover - debug aid
        state = "done" if self.completed else "pending"
        return f"<RmaOp {self.kind} {self.nbytes}B {state}>"
