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

The methods are the surface the paper's two benchmarks and the examples
use: nonblocking two-sided operations with their blocking forms and
``wait``/``waitall``; ``allreduce``; and the one-sided put/get/accumulate
with ``flush`` inside a ``win_lock_all`` epoch.  The one-sided operations
live in :mod:`repro.mpi.rma.ops` and the collective in
:mod:`repro.mpi.collectives`.
"""

from __future__ import annotations

from repro.mpi import collectives as _coll
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, TAG_UB
from repro.mpi.errors import TagError
from repro.mpi.request import RecvRequest, SendRequest
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
        counter = state.send_seq(dst)
        seq = counter.fetch_add()
        yield counter.cost_delay
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
        pool = process.pool
        cri = pool.warm_instance()
        if cri is None:
            cri = yield from pool.get_instance()
        yield from cri.lock.acquire()
        yield Delay(process.host_reserve() + costs.send_path_ns)
        endpoint = process.endpoint_for(cri, dst)
        yield cri.context.post_send(endpoint, envelope)
        cri.sends += 1
        yield cri.lock.release()
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
        req = RecvRequest(src, tag, nbytes)
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

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def wait(self, request):
        """Generator: block (spinning in the progress engine) until done;
        returns the request, or raises its error."""
        if not request.completed:
            process = self.process
            yield from process.progress_engine.poll(
                lambda: request.completed, process._wait_backoff_delay)
        if request.error is not None:
            raise request.error
        return request

    def waitall(self, requests):
        """Generator: wait for each request in turn.

        The first failed request raises its error before the ones after
        it are waited for.  Each wait polls the progress engine directly,
        so a waiting thread resumes worker -> ``waitall`` -> engine loop.
        """
        process = self.process
        poll = process.progress_engine.poll
        backoff = process._wait_backoff_delay
        for req in requests:
            if not req.completed:
                # poll runs to completion before the loop rebinds ``req``
                yield from poll(lambda: req.completed, backoff)
            if req.error is not None:
                raise req.error

    def progress(self):
        """Generator: one call into the progress engine; returns the
        number of completions it handled."""
        return self.process.progress_engine.progress()

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def allreduce(self, comm, value, op=_coll.SUM, nbytes: int = 0):
        """Generator: reduce across ``comm``; every member gets the result."""
        return _coll.allreduce(self, comm, value, op, nbytes)

    # ------------------------------------------------------------------
    # one-sided
    # ------------------------------------------------------------------
    def win_allocate(self, comm, size_bytes: int) -> Window:
        """Collective-in-spirit window allocation (callable from any one
        thread; every member's buffer is created)."""
        return Window(self.world, comm, size_bytes)

    def win_lock_all(self, win):
        """Generator: open shared passive-target epochs on every member."""
        return _rma_ops.win_lock_all(self, win)

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
