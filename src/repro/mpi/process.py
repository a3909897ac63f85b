"""One MPI process: rank, CRI pool, progress engine, matching state.

The process is where the layers meet: it owns the CRI pool (from
:mod:`repro.core`), the progress engine configured by the run's
:class:`~repro.core.config.ThreadingConfig`, the per-communicator matching
engines, and the SPC counters.  It also models the per-process shared
host bottleneck (``host_reserve``): memory allocator, cache coherence and
on-node bandwidth impose a minimum gap between consecutive fully-processed
messages of one process, which is what separates a 20-thread process from
20 single-threaded processes even when all software locks are gone.
"""

from __future__ import annotations

from repro.core.config import CostModel, ThreadingConfig
from repro.core.pool import CRIPool
from repro.core.progress import make_progress_engine
from repro.mpi.matching import CommState
from repro.mpi.rendezvous import RendezvousManager
from repro.mpi.errors import ERRORS_RETURN, TransportError
from repro.mpi.request import Status
from repro.mpi.spc import OBS_GAUGES, SPC
from repro.netsim.cq import RecvArrival, SendCompletion, TransportFailure
from repro.netsim.message import CTS, DATA
from repro.simthread.scheduler import Delay
from repro.util.latency import LatencyHistogram


class MpiProcess:
    """Per-rank state of the simulated MPI library."""

    def __init__(self, world, rank: int, nic, config: ThreadingConfig,
                 costs: CostModel, lock_fairness: str = "unfair"):
        self.world = world
        #: the world's cooperative thread scheduler (fixed at construction,
        #: cached flat for the per-message fast path)
        self.sched = world.sched
        self.rank = rank
        self.nic = nic
        self.config = config
        self.costs = costs
        # constant per-event costs, flattened from the frozen CostModel;
        # the Delay records are reused across events (the scheduler only
        # reads them)
        self._host_gap = costs.host_gap_ns
        self._req_complete_delay = Delay(costs.request_complete_ns)
        self._rndv_handshake_delay = Delay(costs.rndv_handshake_ns)
        self._wait_backoff_delay = Delay(costs.wait_backoff_ns)
        self._rma_flush_backoff_delay = Delay(costs.rma_flush_backoff_ns)
        self.spc = SPC()
        self.pool = CRIPool(world.sched, nic, config, costs, lock_fairness, rank)
        # The transport and the pool count retransmits/migrations into
        # this process's SPC.
        self.pool.spc = self.spc
        for cri in self.pool.instances:
            cri.context.spc = self.spc
        self.rndv = RendezvousManager(self)
        #: end-to-end latency of messages delivered at this process
        self.latency = LatencyHistogram()
        self.progress_engine = make_progress_engine(
            world.sched, self.pool, config, costs, self._dispatch,
            post_round=self.rndv)
        self._comm_states: dict[int, CommState] = {}
        self._host_free_at = 0

    # ------------------------------------------------------------------
    def comm_state(self, comm) -> CommState:
        """This process's per-communicator state (lazily created)."""
        state = self._comm_states.get(comm.id)
        if state is None:
            comm.check_member(self.rank, "local rank")
            state = CommState(self.sched, self, comm)
            self._comm_states[comm.id] = state
        return state

    def comm_state_by_id(self, comm_id: int) -> CommState:
        """Per-communicator state looked up by context id."""
        state = self._comm_states.get(comm_id)
        if state is None:
            state = self.comm_state(self.world.comm_by_id(comm_id))
        return state

    @property
    def comm_states(self) -> tuple:
        """All materialized per-communicator states, in creation order."""
        return tuple(self._comm_states.values())

    def obs_counters(self) -> dict:
        """Lock/progress gauges derived from live structures.

        The observability layer (``repro.obs``) reads contention through
        this one accessor: match-lock and CRI-lock cumulative wait/hold
        time, try-lock failures, and progress-engine call/denial counts,
        keyed by :data:`~repro.mpi.spc.OBS_GAUGES`.
        """
        match_wait = match_hold = 0
        for state in self._comm_states.values():
            lock = state.matching.lock
            match_wait += lock.wait_time_ns
            match_hold += lock.hold_time_ns
        cri_wait = cri_hold = cri_tryfails = 0
        for cri in self.pool.instances:
            cri_wait += cri.lock.wait_time_ns
            cri_hold += cri.lock.hold_time_ns
            cri_tryfails += cri.lock.tryfails
        engine = self.progress_engine
        progress_lock = getattr(engine, "global_lock", None)
        progress_wait = progress_lock.wait_time_ns if progress_lock else 0
        return dict(zip(OBS_GAUGES,
                        (match_wait, match_hold, cri_wait, cri_hold,
                         cri_tryfails, engine.calls, engine.denied,
                         progress_wait), strict=True))

    # ------------------------------------------------------------------
    def host_reserve(self) -> int:
        """Reserve one slot of the process's host pipeline.

        Returns the extra wait (ns) the caller must add to its delay so
        that fully-processed messages of this process are spaced at least
        ``host_gap_ns`` apart.
        """
        now = self.sched._now
        start = self._host_free_at if self._host_free_at > now else now
        self._host_free_at = start + self._host_gap
        return start - now

    # ------------------------------------------------------------------
    def endpoint_for(self, cri, dst_rank: int):
        """Connection from this CRI to the destination's paired context.

        The destination context is the peer's instance with the same index
        modulo the peer's pool size, so symmetric dedicated assignments
        produce fully private channels per thread pair.
        """
        dst_proc = self.world.processes[dst_rank]
        dst_pool = dst_proc.pool
        dst_ctx = dst_pool.instances[cri.index % len(dst_pool)].context
        return cri.context.endpoint_to(dst_ctx)

    # ------------------------------------------------------------------
    def _dispatch(self, event):
        """Generator: handle one completion event; returns completions."""
        watchdog = self.world.watchdog
        if watchdog is not None:
            watchdog.note()
        if type(event) is RecvArrival:
            env = event.envelope
            if env.kind == CTS:
                # Rendezvous clear-to-send: release the bulk data.
                self.rndv.queue_data(env)
                yield self._rndv_handshake_delay
                return 1
            if env.kind == DATA:
                yield from self._deliver_rndv_data(env)
                return 1
            state = self._comm_states.get(env.comm_id)
            if state is None:
                state = self.comm_state_by_id(env.comm_id)
            count = yield from state.matching.handle_arrival(env)
            return count
        if type(event) is SendCompletion:
            event.request._complete(self.sched._now)
            yield self._req_complete_delay
            return 1
        if type(event) is TransportFailure:
            yield from self._dispatch_transport_failure(event)
            return 1
        raise TypeError(f"unknown completion event {event!r}")

    def _dispatch_transport_failure(self, event):
        """Generator: surface a transport error completion.

        The owning communicator's error handler decides: ERRORS_ARE_FATAL
        (the default) raises here, aborting the run from the progress
        engine with a diagnosable :class:`TransportError`; ERRORS_RETURN
        fails the originating request/operation so the error surfaces
        from ``wait``/``flush`` at the caller.
        """
        env, op = event.envelope, event.op
        if env is not None:
            error = TransportError(
                f"send {env.src}->{env.dst} (comm={env.comm_id}, tag={env.tag}, "
                f"seq={env.seq}, kind={env.kind}): {event.reason}")
            comm = self.world.comm_by_id(env.comm_id)
            if comm.errhandler != ERRORS_RETURN:
                raise error
            if env.send_request is not None and not env.send_request.completed:
                env.send_request._fail(error, self.sched.now)
            yield Delay(self.costs.request_complete_ns)
            return
        error = TransportError(
            f"rma {op.kind} of {op.nbytes} bytes: {event.reason}")
        window = getattr(op, "window", None)
        if window is None or window.comm.errhandler != ERRORS_RETURN:
            raise error
        op.error = error
        window.note_error(op.origin, error)
        # Retire through the hardware-counter path so flush terminates
        # (and then reports the recorded error).
        op.mark_completed(self.sched.now)
        if op.on_completed is not None:
            op.on_completed()
        yield Delay(self.costs.request_complete_ns)

    def _deliver_rndv_data(self, env):
        """Generator: a pre-matched DATA fragment completes its receive."""
        req = env.recv_request
        work = (self.costs.request_complete_ns
                + int(env.nbytes * self.costs.copy_per_byte_ns)
                + self.host_reserve())
        if not req.completed:  # a truncating RTS already failed it
            req.data = env.payload
            req.status = Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
            req._complete(self.sched.now)
        if env.sent_at is not None:
            self.latency.record(self.sched.now - env.sent_at)
        self.spc.messages_received += 1
        yield Delay(work)

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<MpiProcess rank={self.rank} nic={self.nic.nic_id} cris={len(self.pool)}>"
