"""Rendezvous protocol engine (messages above the eager limit).

Small messages travel eagerly: header + payload in one fragment, buffered
by the receiver if unexpected.  Large messages cannot be buffered
speculatively, so MPI implementations switch to a rendezvous:

1. the sender transmits an **RTS** (ready-to-send: header only), which is
   sequence-validated and matched exactly like an eager message;
2. when the RTS matches a posted receive, the receiver answers **CTS**
   (clear-to-send), a control fragment that bypasses matching;
3. the sender transmits the **DATA** fragment, pre-matched to the receive
   request; its arrival completes the receive, and its injection
   completes the send.

Control replies cannot be sent from inside the matching engine (the match
lock is held and a network context would have to be acquired), so they
are queued here and flushed by the progress engine's post-round hook --
mirroring how real implementations schedule protocol acks from the
progress loop.
"""

from __future__ import annotations

from collections import deque

from repro.netsim.message import CTS, DATA, Envelope
from repro.simthread.scheduler import Delay


class RendezvousManager:
    """Per-process pending-control-fragment queue."""

    def __init__(self, process):
        self.process = process
        #: queued control fragments; progress calls :meth:`flush` only if any
        self.pending: deque = deque()
        self.rts_matched = 0
        self.cts_sent = 0
        self.data_sent = 0

    # ------------------------------------------------------------------
    # enqueue (called from matching / dispatch, no virtual time consumed)
    # ------------------------------------------------------------------
    def queue_cts(self, rts_env: Envelope, recv_req) -> None:
        """An RTS matched a posted receive: answer with clear-to-send."""
        self.rts_matched += 1
        sched = self.process.sched
        trc = sched.tracer
        if trc.enabled and sched.current is not None:
            trc.instant(trc.thread_track(sched.current), "rndv.rts-matched",
                        "rndv", {"src": rts_env.src, "nbytes": rts_env.nbytes})
        self.pending.append(Envelope(
            src=self.process.rank, dst=rts_env.src, comm_id=rts_env.comm_id,
            tag=rts_env.tag, seq=-1, nbytes=0, kind=CTS,
            rndv_token=rts_env.rndv_token, recv_request=recv_req))

    def queue_data(self, cts_env: Envelope) -> None:
        """A CTS arrived: release the bulk payload toward the receiver."""
        send_req = cts_env.rndv_token
        self.pending.append(Envelope(
            src=self.process.rank, dst=cts_env.src, comm_id=cts_env.comm_id,
            tag=cts_env.tag, seq=-1, nbytes=send_req.nbytes,
            payload=send_req.payload, kind=DATA,
            send_request=send_req, recv_request=cts_env.recv_request))

    # ------------------------------------------------------------------
    def flush(self):
        """Generator: transmit every queued control fragment.

        Runs in whatever thread is in the progress engine; acquires a CRI
        per fragment like any other send.
        """
        process = self.process
        while self.pending:
            env = self.pending.popleft()
            trc = process.sched.tracer
            traced = trc.enabled
            if traced:
                tid = trc.thread_track(process.sched.current)
                trc.begin(tid, "rndv.cts" if env.kind == CTS else "rndv.data",
                          "rndv", {"dst": env.dst, "nbytes": env.nbytes})
            pool = process.pool
            cri = pool.warm_instance()
            if cri is None:
                cri = yield from pool.get_instance()
            yield from cri.lock.acquire()
            yield Delay(process.costs.rndv_handshake_ns)
            endpoint = process.endpoint_for(cri, env.dst)
            yield cri.context.post_send(endpoint, env)
            yield cri.lock.release()
            if env.kind == CTS:
                self.cts_sent += 1
            else:
                self.data_sent += 1
            if traced:
                trc.end(tid)
