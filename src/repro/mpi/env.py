"""Per-thread MPI API handle.

An :class:`MpiThreadEnv` is what a simulated application thread calls MPI
through -- the equivalent of "a thread inside an MPI_THREAD_MULTIPLE
process".  All potentially-blocking calls are generators and must be
driven with ``yield from`` (a method that only delegates returns the
inner generator, adding no frame to the chain every event resumes)::

    def worker(env, peer, comm):
        req = yield from env.irecv(comm, src=peer, tag=7)
        yield from env.isend(comm, dst=peer, tag=7)
        yield from env.wait(req)

Two-sided, one-sided and collective operations are available; the
one-sided surface lives in :mod:`repro.mpi.rma.ops` and collectives in
:mod:`repro.mpi.collectives`, both re-exported here as methods.
"""

from __future__ import annotations

from repro.mpi import collectives as _coll
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, TAG_UB
from repro.mpi.errors import MpiError, TagError
from repro.mpi.request import PersistentRequest, RecvRequest, SendRequest, Status
from repro.mpi.rma import ops as _rma_ops
from repro.mpi.rma.window import Window
from repro.netsim.message import RTS, Envelope  # noqa: F401 (RTS: doc refs)
from repro.simthread.scheduler import Delay


class MpiThreadEnv:
    """One application thread's view of the MPI library."""

    __slots__ = ("process", "name")

    def __init__(self, process, name: str | None = None):
        self.process = process
        self.name = name or f"rank{process.rank}-thread"

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Rank of the owning process in MPI_COMM_WORLD."""
        return self.process.rank

    @property
    def world(self):
        """The MpiWorld this thread's process belongs to."""
        return self.process.world

    @property
    def sched(self):
        """The cooperative thread scheduler driving the simulation."""
        return self.process.world.sched

    @property
    def costs(self):
        """The CostModel charging virtual time for library operations."""
        return self.process.costs

    @property
    def comm_world(self):
        """The predefined world communicator."""
        return self.process.world.comm_world

    # ------------------------------------------------------------------
    # two-sided
    # ------------------------------------------------------------------
    def _check_user_tag(self, tag: int, recv: bool) -> None:
        if recv and tag == ANY_TAG:
            return
        if not 0 <= tag <= TAG_UB:
            raise TagError(f"tag {tag} outside [0, {TAG_UB}]"
                           + (" (or ANY_TAG)" if recv else ""))

    def isend(self, comm, dst: int, tag: int = 0, nbytes: int = 0, payload=None):
        """Generator: nonblocking eager send; returns a SendRequest."""
        self._check_user_tag(tag, recv=False)
        return self._isend(comm, dst, tag, nbytes, payload)

    def _isend(self, comm, dst: int, tag: int, nbytes: int, payload):
        """Internal send path (collectives use tags above TAG_UB)."""
        comm.check_member(dst, "destination")
        comm.check_member(self.rank, "source")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        process = self.process
        costs = process.costs
        req = SendRequest(dst, tag, nbytes)
        state = process.comm_state(comm)
        trc = process.sched.tracer
        traced = trc.enabled
        if traced:
            tid = trc.thread_track(self.sched.current)
            # src/comm join the span to the receiver's match.arrival in
            # the offline analyzer (repro.obs.analyze): the message key
            # is (comm, src, dst, seq).
            trc.begin(tid, "send", "p2p", {"dst": dst, "tag": tag,
                                           "nbytes": nbytes,
                                           "src": self.rank, "comm": comm.id})
        # Sequence assignment happens *before* the instance lock -- the
        # race between assignment and injection is real (section II-C).
        seq = yield from state.send_seq(dst).fetch_add()
        req.seq = seq
        if nbytes > costs.eager_limit_bytes:
            # Rendezvous: only the RTS header travels now; the payload is
            # parked on the request until the receiver's CTS releases it.
            req.payload = payload
            envelope = Envelope(src=self.rank, dst=dst, comm_id=comm.id,
                                tag=tag, seq=seq, nbytes=nbytes, kind=RTS,
                                rndv_token=req)
            process.spc.rendezvous_sends += 1
        else:
            envelope = Envelope(src=self.rank, dst=dst, comm_id=comm.id,
                                tag=tag, seq=seq, nbytes=nbytes,
                                payload=payload, send_request=req)
        cri = yield from process.pool.get_instance()
        yield from cri.lock.acquire()
        yield Delay(process.host_reserve() + costs.send_path_ns)
        endpoint = process.endpoint_for(cri, dst)
        yield from cri.context.post_send(endpoint, envelope)
        cri.sends += 1
        yield from cri.lock.release()
        process.spc.messages_sent += 1
        if traced:
            trc.end(tid, {"seq": seq,
                          "proto": "rndv" if envelope.kind == RTS else "eager"})
        return req

    def irecv(self, comm, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              nbytes: int = 0):
        """Generator: nonblocking receive; returns a RecvRequest.

        ``nbytes`` is the buffer capacity; a longer incoming message
        raises TruncationError at wait time (capacity 0 means
        "envelope-only", accepting any size, as the zero-byte benchmarks
        do).
        """
        self._check_user_tag(tag, recv=True)
        return self._irecv(comm, src, tag, nbytes)

    def _irecv(self, comm, src: int, tag: int, nbytes: int):
        """Internal receive path (no user-tag-range validation)."""
        comm.check_member(src, "source")
        comm.check_member(self.rank, "local rank")
        req = RecvRequest(src, tag, nbytes, comm_id=comm.id)
        state = self.process.comm_state(comm)
        yield from state.matching.post_recv(req)
        return req

    def send(self, comm, dst: int, tag: int = 0, nbytes: int = 0, payload=None):
        """Generator: blocking send (isend + wait)."""
        req = yield from self.isend(comm, dst, tag, nbytes, payload)
        yield from self.wait(req)

    def recv(self, comm, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             nbytes: int = 0):
        """Generator: blocking receive; returns ``(payload, status)``."""
        req = yield from self.irecv(comm, src, tag, nbytes)
        yield from self.wait(req)
        return req.data, req.status

    def _recv(self, comm, src: int, tag: int, nbytes: int = 0):
        """Internal blocking receive (collectives' tag space)."""
        req = yield from self._irecv(comm, src, tag, nbytes)
        yield from self.wait(req)
        return req.data, req.status

    def sendrecv(self, comm, dst: int, sendtag: int, src: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG, send_nbytes: int = 0,
                 send_payload=None, recv_nbytes: int = 0):
        """Generator: simultaneous send and receive (MPI_Sendrecv).

        Both operations are started before either is waited on, so the
        classic head-to-head exchange cannot deadlock.  Returns
        ``(payload, status)`` of the received message.
        """
        send_req = yield from self.isend(comm, dst, sendtag, send_nbytes,
                                         send_payload)
        recv_req = yield from self.irecv(comm, src, recvtag, recv_nbytes)
        yield from self.wait(recv_req)
        yield from self.wait(send_req)
        return recv_req.data, recv_req.status

    # ------------------------------------------------------------------
    # probe
    # ------------------------------------------------------------------
    def iprobe(self, comm, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: nonblocking probe; returns a Status or None.

        Drives one progress round first (like real MPI_Iprobe) so freshly
        arrived traffic is visible, then peeks the unexpected queue.
        """
        self._check_user_tag(tag, recv=True)
        comm.check_member(src, "source")
        yield from self.progress()
        engine = self.process.comm_state(comm).matching
        env = yield from engine.probe_unexpected(src, tag, remove=False)
        if env is None:
            return None
        return Status(source=env.src, tag=env.tag, nbytes=env.nbytes)

    def probe(self, comm, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: blocking probe; returns the matching Status."""
        backoff = self.process._wait_backoff_delay
        while True:
            status = yield from self.iprobe(comm, src, tag)
            if status is not None:
                return status
            yield backoff

    def improbe(self, comm, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: matched probe (MPI_Improbe).

        On a hit the message is *removed* from the matching engine -- no
        other receive can steal it -- and a handle is returned for
        :meth:`mrecv`.  Returns None on a miss.
        """
        self._check_user_tag(tag, recv=True)
        comm.check_member(src, "source")
        yield from self.progress()
        engine = self.process.comm_state(comm).matching
        env = yield from engine.probe_unexpected(src, tag, remove=True)
        return env  # opaque message handle (or None)

    def mrecv(self, message, nbytes: int = 0):
        """Generator: receive a message extracted by improbe.

        Returns ``(payload, status)``.  Works for both eager messages
        (delivery is immediate) and rendezvous RTS handles (the CTS/DATA
        exchange runs now).
        """
        if message is None:
            raise MpiError("mrecv needs a message handle from improbe")
        req = RecvRequest(message.src, message.tag, nbytes)
        engine = self.process.comm_state_by_id(message.comm_id).matching
        yield from engine.lock.acquire()
        extra, _ = engine._on_matched(req, message)
        yield Delay(extra)
        yield from engine.lock.release()
        yield from self.wait(req)
        return req.data, req.status

    # ------------------------------------------------------------------
    # persistent requests
    # ------------------------------------------------------------------
    def send_init(self, comm, dst: int, tag: int = 0, nbytes: int = 0,
                  payload=None) -> PersistentRequest:
        """Create an inactive persistent send (MPI_Send_init)."""
        self._check_user_tag(tag, recv=False)
        comm.check_member(dst, "destination")
        return PersistentRequest(PersistentRequest.SEND, dict(
            comm=comm, dst=dst, tag=tag, nbytes=nbytes, payload=payload))

    def recv_init(self, comm, src: int = ANY_SOURCE, tag: int = ANY_TAG,
                  nbytes: int = 0) -> PersistentRequest:
        """Create an inactive persistent receive (MPI_Recv_init)."""
        self._check_user_tag(tag, recv=True)
        comm.check_member(src, "source")
        return PersistentRequest(PersistentRequest.RECV, dict(
            comm=comm, src=src, tag=tag, nbytes=nbytes))

    def start(self, preq: PersistentRequest):
        """Generator: activate one round of a persistent request."""
        if preq.active:
            raise MpiError("persistent request is already active")
        a = preq.args
        if preq.kind == PersistentRequest.SEND:
            inner = yield from self._isend(a["comm"], a["dst"], a["tag"],
                                           a["nbytes"], a["payload"])
        else:
            inner = yield from self._irecv(a["comm"], a["src"], a["tag"],
                                           a["nbytes"])
        preq._activate(inner)
        return preq

    def startall(self, preqs):
        """Generator: activate a set of persistent requests."""
        for p in preqs:
            yield from self.start(p)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def wait(self, request):
        """Generator: block (spinning in the progress engine) until done."""
        process = self.process
        progress = process.progress_engine.progress
        backoff = process._wait_backoff_delay
        poll = process._wait_poll_delay
        while not request.completed:
            n = yield from progress()
            if request.completed:
                break
            yield backoff if n == 0 else poll
        if request.error is not None:
            raise request.error
        if isinstance(request, PersistentRequest):
            request._deactivate()
        return request

    def waitall(self, requests):
        """Generator: wait for every request in the sequence."""
        for req in requests:
            yield from self.wait(req)

    def waitany(self, requests):
        """Generator: block until at least one request completes; returns
        the index of a completed request (MPI_Waitany)."""
        requests = list(requests)
        if not requests:
            raise ValueError("waitany needs at least one request")
        progress = self.process.progress_engine.progress
        backoff = self.process._wait_backoff_delay
        while True:
            for i, req in enumerate(requests):
                if req.completed:
                    if req.error is not None:
                        raise req.error
                    return i
            n = yield from progress()
            if n == 0:
                yield backoff

    def waitsome(self, requests):
        """Generator: block until >= 1 completes; returns all completed
        indices (MPI_Waitsome)."""
        first = yield from self.waitany(requests)
        done = [i for i, req in enumerate(requests) if req.completed]
        assert first in done
        return done

    def test(self, request) -> bool:
        """Nonblocking completion check (no progress)."""
        return request.completed

    def testall(self, requests):
        """Generator: one progress round, then all-complete check."""
        yield from self.progress()
        return all(req.completed for req in requests)

    def testany(self, requests):
        """Generator: one progress round; returns a completed index or None."""
        yield from self.progress()
        for i, req in enumerate(requests):
            if req.completed:
                return i
        return None

    def cancel(self, request):
        """Generator: cancel a pending receive (MPI_Cancel).

        Returns True if the receive was still unmatched and is now
        cancelled; False if it had already matched (the operation will
        complete normally).  Cancelling sends is not supported, matching
        the direction MPI-4 took in deprecating it.
        """
        if not isinstance(request, RecvRequest):
            raise MpiError("only receive requests can be cancelled")
        if request.completed:
            return False
        if request.comm_id is None:
            raise MpiError("request was not posted through irecv")
        engine = self.process.comm_state_by_id(request.comm_id).matching
        removed = yield from engine.cancel_posted(request)
        if removed:
            request._cancel(self.sched.now)
            return True
        return False

    def progress(self):
        """Generator: one call into the progress engine; returns the
        number of completions it handled."""
        return self.process.progress_engine.progress()

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self, comm, algorithm: str = _coll.LINEAR):
        """Generator: block until every member of ``comm`` arrives."""
        return _coll.barrier(self, comm, algorithm)

    def bcast(self, comm, root: int, payload=None, nbytes: int = 0,
              algorithm: str = _coll.LINEAR):
        """Generator: broadcast ``payload`` from ``root``; returns it."""
        return _coll.bcast(self, comm, root, payload, nbytes, algorithm)

    def reduce(self, comm, root: int, value, op=_coll.SUM, nbytes: int = 0,
               algorithm: str = _coll.LINEAR):
        """Generator: reduce to ``root``; returns the result there, None elsewhere."""
        return _coll.reduce(self, comm, root, value, op, nbytes, algorithm)

    def allreduce(self, comm, value, op=_coll.SUM, nbytes: int = 0,
                  algorithm: str = _coll.LINEAR):
        """Generator: reduce across ``comm``; every member gets the result."""
        return _coll.allreduce(self, comm, value, op, nbytes, algorithm)

    def gather(self, comm, root: int, value, nbytes: int = 0):
        """Generator: gather one value per rank to ``root`` (list there)."""
        return _coll.gather(self, comm, root, value, nbytes)

    def scatter(self, comm, root: int, values=None, nbytes: int = 0):
        """Generator: ``root`` scatters one value to each rank; returns ours."""
        return _coll.scatter(self, comm, root, values, nbytes)

    def allgather(self, comm, value, nbytes: int = 0):
        """Generator: gather one value per rank; every member gets the list."""
        return _coll.allgather(self, comm, value, nbytes)

    def alltoall(self, comm, values, nbytes: int = 0):
        """Generator: personalized exchange; returns the values sent to us."""
        return _coll.alltoall(self, comm, values, nbytes)

    # ------------------------------------------------------------------
    # one-sided
    # ------------------------------------------------------------------
    def win_allocate(self, comm, size_bytes: int) -> Window:
        """Collective-in-spirit window allocation (callable from any one
        thread; every member's buffer is created)."""
        return Window(self.world, comm, size_bytes)

    def win_lock(self, win, target: int, exclusive: bool = False):
        """Generator: open a passive-target epoch on ``target``'s window."""
        return _rma_ops.win_lock(self, win, target, exclusive)

    def win_lock_all(self, win):
        """Generator: open shared passive-target epochs on every member."""
        return _rma_ops.win_lock_all(self, win)

    def win_unlock(self, win, target: int):
        """Generator: flush outstanding ops and close the epoch on ``target``."""
        return _rma_ops.win_unlock(self, win, target)

    def win_unlock_all(self, win):
        """Generator: flush and close the epochs opened by win_lock_all."""
        return _rma_ops.win_unlock_all(self, win)

    def put(self, win, target: int, nbytes: int, target_offset: int = 0, data=None):
        """Generator: one-sided write into ``target``'s window; returns the op."""
        return _rma_ops.put(self, win, target, nbytes, target_offset, data)

    def get(self, win, target: int, nbytes: int, target_offset: int = 0):
        """Generator: one-sided read from ``target``'s window; returns the op."""
        return _rma_ops.get(self, win, target, nbytes, target_offset)

    def accumulate(self, win, target: int, values, target_offset: int = 0,
                   op=_rma_ops.SUM_OP):
        """Generator: element-wise atomic update of ``target``'s window."""
        return _rma_ops.accumulate(self, win, target, values, target_offset,
                                   op)

    def flush(self, win, target: int | None = None):
        """Generator: wait for outstanding RMA ops to ``target`` (or all)."""
        return _rma_ops.flush(self, win, target)

    def flush_all(self, win):
        """Generator: wait for outstanding RMA ops to every target."""
        return _rma_ops.flush(self, win, None)

    def fence(self, win):
        """Generator: active-target synchronization across the window group."""
        return _rma_ops.fence(self, win)

    def win_sync(self, win):
        """Generator: synchronize the local window copy (memory barrier)."""
        return _rma_ops.win_sync(self, win)
