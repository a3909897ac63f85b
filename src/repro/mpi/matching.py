"""The matching engine: sequence validation, queues, delivery.

This is the paper's central bottleneck (section II-C, III-F).  One engine
exists per (process, communicator) -- the OB1 design -- so creating one
communicator per thread pair yields effectively concurrent matching.

Responsibilities per incoming message, all under this communicator's
match lock:

1. **Sequence validation** (skipped under ``mpi_assert_allow_overtaking``):
   messages from each source must be processed in send order.  An
   out-of-sequence arrival is buffered (memory allocation in the critical
   path -- the expensive operation the paper highlights) until its
   predecessors arrive.
2. **Queue search**: match the message against posted receives (linear
   scan cost, wildcard-aware), or store it in the unexpected queue.
3. **Delivery**: complete the receive request, copy payload, record SPCs.

The *migration penalty*: when the thread operating the matching
structures differs from the previous one, the working set moves between
core caches.  Under serial progress one thread handles long batches and
the penalty amortizes; under concurrent progress each message tends to be
matched by a different thread and matching time inflates ~3x -- exactly
the effect in the paper's Table II.
"""

from __future__ import annotations

import itertools

from repro.mpi.errors import TruncationError
from repro.mpi.matchqueue import MatchQueue
from repro.mpi.request import Status
from repro.netsim.message import RTS
from repro.simthread.scheduler import Delay
from repro.simthread.sync import SimLock


class MatchingEngine:
    """Receive-side matching state for one (process, communicator)."""

    def __init__(self, sched, process, comm):
        self.sched = sched
        self.process = process
        self.comm = comm
        self.costs = process.costs
        self.spc = process.spc
        self.lock = SimLock(sched, self.costs.lock_costs(),
                            name=f"p{process.rank}/match-c{comm.id}")
        self.posted = MatchQueue(entry_wildcards=True)
        self.unexpected = MatchQueue(entry_wildcards=False)
        self.expected_seq: dict[int, int] = {}
        self.oos_buffer: dict[int, dict[int, object]] = {}
        self.allow_overtaking = comm.allow_overtaking
        self._last_matcher = None
        self._last_match_at = -(10 ** 18)
        # flattened frozen costs + a reusable Delay for the constant
        # receive-post charge (arrival-path hot loop)
        costs = self.costs
        self._hot_window = costs.match_hot_window_ns
        self._migration_ns = costs.match_migration_ns
        self._recv_post_delay = Delay(costs.recv_post_ns)

    def _trace_depths(self, trc) -> None:
        """Sample this engine's queue depths on its trace track."""
        trc.counter(
            trc.resource_track("queue", f"q:{self.lock.name}", key=id(self)),
            {"posted": len(self.posted),
             "unexpected": len(self.unexpected),
             "oos": sum(len(buf) for buf in self.oos_buffer.values())})

    # ------------------------------------------------------------------
    def _migration(self) -> int:
        """Cache-migration penalty when a different thread *matches*.

        Only the arrival path charges this: matching walks the full
        queue structures, so a holder change drags the whole working set
        between core caches.  Posting touches a single queue node and is
        treated as migration-neutral (it neither pays nor resets the
        penalty), which keeps serial progress amortized even while many
        threads interleave their receive posts.
        """
        sched = self.sched
        now = sched._now
        me = sched.current
        hot = (now - self._last_match_at) < self._hot_window
        changed = self._last_matcher is not None and self._last_matcher is not me
        self._last_matcher = me
        self._last_match_at = now
        if changed and hot:
            self.spc.match_migrations += 1
            return self._migration_ns
        return 0

    def _deliver(self, req, env) -> None:
        """Complete a matched receive (bookkeeping only; cost is charged
        by the caller)."""
        now = self.sched._now
        if env.nbytes > req.capacity and req.capacity != 0:
            req._fail(TruncationError(
                f"message of {env.nbytes} bytes truncates receive buffer of "
                f"{req.capacity} bytes (src={env.src}, tag={env.tag})"), now)
        else:
            req.data = env.payload
            req.status = Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
            req._complete(now)
        if env.sent_at is not None:
            self.process.latency.record(now - env.sent_at)
        self.spc.messages_received += 1

    def _on_matched(self, req, env) -> tuple[int, int]:
        """A message met its receive; returns ``(extra_work_ns, done)``.

        Eager messages deliver immediately.  An RTS instead schedules the
        clear-to-send reply; delivery happens when the DATA fragment
        lands (handled by the process dispatcher, outside matching).  A
        truncating RTS fails the request now but still answers CTS so
        the sender can complete.
        """
        if env.kind == RTS:
            if env.nbytes > req.capacity and req.capacity != 0:
                req._fail(TruncationError(
                    f"rendezvous message of {env.nbytes} bytes truncates "
                    f"receive buffer of {req.capacity} bytes "
                    f"(src={env.src}, tag={env.tag})"), self.sched.now)
            self.process.rndv.queue_cts(env, req)
            return self.costs.rndv_handshake_ns, 1
        self._deliver(req, env)
        return self.costs.match_deliver_ns, 1

    def _match_one(self, env) -> tuple[int, int]:
        """Match one in-sequence (or overtaking) message.

        Returns ``(work_ns, completions)``.
        """
        costs = self.costs
        work = costs.match_base_ns
        m = self.posted.match(env.src, env.tag)
        if m is not None:
            req, scanned = m
            self.spc.match_queue_scanned += scanned
            work += scanned * costs.match_search_per_elem_ns
            extra, done = self._on_matched(req, env)
            return work + extra, done
        self.unexpected.insert(env.src, env.tag, env)
        self.spc.unexpected_messages += 1
        self.spc.note_unexpected_depth(len(self.unexpected))
        return work + costs.unexpected_insert_ns, 0

    # ------------------------------------------------------------------
    def post_recv(self, req):
        """Generator: post a receive; match unexpected first (MPI rule).

        Request setup (allocation, argument marshalling) happens outside
        the match lock; only the unexpected-queue search and the queue
        insertion run inside the critical section, as in OB1.
        """
        costs = self.costs
        self.spc.recv_posted += 1
        trc = self.sched.tracer
        traced = trc.enabled
        if traced:
            tid = trc.thread_track(self.sched.current)
            trc.begin(tid, "match.post", "match")
        yield self._recv_post_delay
        yield from self.lock.acquire()
        work = costs.match_base_ns // 4
        m = self.unexpected.match(req.src, req.tag)
        if m is not None:
            env, scanned = m
            extra, _ = self._on_matched(req, env)
            work += scanned * costs.match_search_per_elem_ns + extra
        else:
            self.posted.insert(req.src, req.tag, req)
        self.spc.match_time_ns += work
        yield Delay(work)
        yield self.lock.release()
        if traced:
            if m is not None:
                # Name the exact message this post delivered so the
                # analyzer can date unexpected-queue residence.
                trc.end(tid, {"outcome": "unexpected-hit",
                              "src": env.src, "seq": env.seq,
                              "dst": self.process.rank, "comm": self.comm.id})
            else:
                trc.end(tid, {"outcome": "posted"})
            self._trace_depths(trc)

    def handle_arrival(self, env):
        """Generator: process one incoming message; returns completions."""
        costs = self.costs
        trc = self.sched.tracer
        traced = trc.enabled
        if traced:
            tid = trc.thread_track(self.sched.current)
            trc.begin(tid, "match.arrival", "match",
                      {"src": env.src, "seq": env.seq,
                       "dst": self.process.rank, "comm": self.comm.id})
        outcome = "expected"
        yield from self.lock.acquire()
        work = self._migration()
        completions = 0
        if self.allow_overtaking:
            w, completions = self._match_one(env)
            work += w
            outcome = "overtaking"
        else:
            src = env.src
            expected = self.expected_seq.get(src, 0)
            work += costs.seq_validate_ns
            if env.seq < expected:
                # Stale sequence number: a duplicate delivery (the
                # reliable transport's retransmission raced its ack).
                # Buffering it would wedge the out-of-sequence drain, so
                # the existing per-(peer, comm) numbers double as the
                # receiver-side dedup: drop it on the floor.
                self.spc.duplicates_dropped += 1
                outcome = "duplicate"
            elif env.seq != expected:
                # Out of sequence: allocate and stash for later.
                buf = self.oos_buffer.setdefault(src, {})
                buf[env.seq] = env
                self.spc.out_of_sequence += 1
                self.spc.note_oos_depth(len(buf))
                work += costs.oos_insert_ns
                outcome = "oos-buffered"
            else:
                w, c = self._match_one(env)
                work += w
                completions += c
                expected += 1
                # Drain any buffered successors that are now in sequence.
                buf = self.oos_buffer.get(src)
                if buf:
                    while True:
                        work += costs.oos_lookup_ns
                        nxt = buf.pop(expected, None)
                        if nxt is None:
                            break
                        w, c = self._match_one(nxt)
                        work += w + costs.seq_validate_ns
                        completions += c
                        expected += 1
                self.expected_seq[src] = expected
        self.spc.match_time_ns += work
        # The per-process host pipeline bounds total message-handling rate.
        yield Delay(self.process.host_reserve() + work)
        yield self.lock.release()
        if traced:
            if outcome == "expected" and completions == 0:
                outcome = "unexpected"
            trc.end(tid, {"outcome": outcome, "completions": completions,
                          "work_ns": work})
            self._trace_depths(trc)
        return completions


class CommState:
    """All per-(process, communicator) state: matching + send sequencing."""

    __slots__ = ("matching", "_send_seq", "seq_delay", "coll_seq")

    def __init__(self, sched, process, comm):
        self.matching = MatchingEngine(sched, process, comm)
        self._send_seq: dict = {}
        #: the atomic RMW latency a sender yields after :meth:`send_seq`
        self.seq_delay = Delay(process.costs.atomic_rmw_ns)
        # Per-(process, communicator) collective sequence number; stays in
        # agreement across members because collective calls are ordered.
        self.coll_seq = 0

    def send_seq(self, dst: int):
        """The shared per-(peer, communicator) sequence counter.

        Shared by *all* threads of the process sending to ``dst`` on this
        communicator -- the sharing that makes multithreaded sends race
        between sequence assignment and injection.  Returns the counter's
        ``__next__``: a step is never preempted, so each draw is atomic;
        the caller then yields :attr:`seq_delay` to pay the fetch-and-add.
        """
        take = self._send_seq.get(dst)
        if take is None:
            take = self._send_seq[dst] = itertools.count().__next__
        return take
