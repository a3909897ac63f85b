"""Wire message format for two-sided communication.

An :class:`Envelope` is the matching header Open MPI sends even for
zero-byte messages (about 28 bytes on the wire): source, destination,
communicator id, user tag, and the per-(peer, communicator) sequence
number the receiver validates to restore FIFO order.

Envelopes also implement the rendezvous protocol for messages above the
eager limit: ``kind`` distinguishes an ordinary ``eager`` message from
the ``rts`` (ready-to-send: header only, goes through matching), ``cts``
(clear-to-send: control, bypasses matching) and ``data`` (the bulk
payload, pre-matched) stages.
"""

from __future__ import annotations

# Size of the matching header on the wire; the paper quotes ~28 bytes for
# Open MPI.  Zero-byte user messages still pay this envelope.
ENVELOPE_BYTES = 28

EAGER = "eager"
RTS = "rts"
CTS = "cts"
DATA = "data"

_KINDS = (EAGER, RTS, CTS, DATA)


class Envelope:
    """One two-sided message (or rendezvous control fragment) in flight."""

    __slots__ = ("src", "dst", "comm_id", "tag", "seq", "nbytes", "payload",
                 "send_request", "sent_at", "arrived_at", "kind",
                 "rndv_token", "recv_request")

    def __init__(self, src: int, dst: int, comm_id: int, tag: int, seq: int,
                 nbytes: int, payload=None, send_request=None,
                 kind: str = EAGER, rndv_token=None, recv_request=None):
        if kind not in _KINDS:
            raise ValueError(f"envelope kind must be one of {_KINDS}, got {kind!r}")
        self.src = src
        self.dst = dst
        self.comm_id = comm_id
        self.tag = tag
        self.seq = seq
        self.nbytes = nbytes
        self.payload = payload
        self.send_request = send_request
        self.sent_at: int | None = None
        self.arrived_at: int | None = None
        self.kind = kind
        #: sender-side handle the CTS must name (not ``send_request``:
        #: that field triggers local completion at injection time).
        self.rndv_token = rndv_token
        #: receiver-side request a DATA fragment completes directly.
        self.recv_request = recv_request

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire: header only for RTS/CTS, else payload too."""
        if self.kind in (RTS, CTS):
            return ENVELOPE_BYTES
        return self.nbytes + ENVELOPE_BYTES

    def __repr__(self):  # pragma: no cover - debug aid
        return (f"<Envelope {self.kind} {self.src}->{self.dst} "
                f"comm={self.comm_id} tag={self.tag} seq={self.seq} "
                f"{self.nbytes}B>")
