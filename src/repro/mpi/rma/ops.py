"""One-sided operations and synchronization.

The initiating thread's path mirrors the two-sided send path minus
matching: acquire a CRI (round-robin or dedicated), post the RDMA
descriptor, done -- the target CPU is never involved.  ``flush`` spins in
the progress engine until the initiator's outstanding operations to the
target have been acked by the remote NIC.
"""

from __future__ import annotations

import operator
from array import array

from repro.mpi.rma.window import WindowOp
from repro.simthread.scheduler import Delay

# Accumulate operators over typed views.
SUM_OP = "sum"
REPLACE_OP = "replace"
MAX_OP = "max"
MIN_OP = "min"

#: elementwise combiners; REPLACE is a plain slice assignment
_COMBINE = {SUM_OP: operator.add, MAX_OP: max, MIN_OP: min}


def _post(env, win, op: WindowOp, post_cost_ns: int):
    """Generator: shared CRI-acquire/post/release path for all RMA ops."""
    process = env.process
    trc = env.sched.tracer
    traced = trc.enabled
    if traced:
        tid = trc.thread_track(env.sched.current)
        trc.begin(tid, f"rma.{op.kind}", "rma",
                  {"target": op.target, "nbytes": op.nbytes})
    pool = process.pool
    cri = pool.warm_instance()
    if cri is None:
        cri = yield from pool.get_instance(switch_ns=env.costs.rma_instance_switch_ns)
    yield from cri.lock.acquire()
    # No host_reserve here: one-sided ops are NIC offload -- no matching,
    # no unexpected-buffer allocation -- so the per-process host message
    # pipeline does not bound them (that is RMA's whole advantage).
    yield Delay(post_cost_ns)
    endpoint = process.endpoint_for(cri, op.target)
    win.track(op)
    yield cri.context.post_rma(endpoint, op)
    yield cri.lock.release()
    process.spc.rma_ops += 1
    if traced:
        trc.end(tid, {"cri": cri.index})
    return op


def put(env, win, target: int, nbytes: int, target_offset: int = 0, data=None):
    """Generator: remote write; returns the operation handle."""
    win.comm.check_member(target, "target")
    win.require_epoch(env.rank, target)
    win.check_range(target, target_offset, nbytes)
    if data is not None:
        # the check also keeps the bytearray slice assignment from resizing
        data = bytes(data)
        if len(data) != nbytes:
            raise ValueError(f"data is {len(data)} bytes but nbytes={nbytes}")
    target_buf = win.buffer(target)

    def remote_write(op):
        op.remote_applied_at = env.sched.now
        if data is not None:
            target_buf[target_offset:target_offset + nbytes] = data

    op = WindowOp("put", nbytes, win, env.rank, target, target_offset, remote_write)
    op = yield from _post(env, win, op, env.costs.rma_put_post_ns)
    return op


def get(env, win, target: int, nbytes: int, target_offset: int = 0):
    """Generator: remote read; ``op.result`` holds the bytes after the op
    completes (flush or wait-on-completed)."""
    win.comm.check_member(target, "target")
    win.require_epoch(env.rank, target)
    win.check_range(target, target_offset, nbytes)
    target_buf = win.buffer(target)

    def remote_read(op):
        op.remote_applied_at = env.sched.now
        return bytes(target_buf[target_offset:target_offset + nbytes])

    op = WindowOp("get", nbytes, win, env.rank, target, target_offset, remote_read)
    op = yield from _post(env, win, op, env.costs.rma_get_post_ns)
    return op


def accumulate(env, win, target: int, values, target_offset: int = 0, op=SUM_OP):
    """Generator: remote atomic update on a typed view of the window.

    ``values`` must be an :class:`array.array`; the target bytes at the
    offset are cast to a typed view with the array's typecode and
    combined elementwise.  The whole update applies atomically (MPI
    guarantees per-element only; we give the stronger guarantee the
    hardware event model makes free).  Integer results do not wrap: a
    sum outside the typecode's range raises ValueError when the update
    applies at the target.
    """
    win.comm.check_member(target, "target")
    win.require_epoch(env.rank, target)
    if not isinstance(values, array):
        raise TypeError(f"accumulate values must be an array.array, "
                        f"not {type(values).__name__}")
    nbytes = len(values) * values.itemsize
    win.check_range(target, target_offset, nbytes)
    if op not in (SUM_OP, REPLACE_OP, MAX_OP, MIN_OP):
        raise ValueError(f"unknown accumulate op {op!r}")
    target_buf = win.buffer(target)

    def remote_accumulate(handle):
        handle.remote_applied_at = env.sched.now
        view = memoryview(target_buf)[target_offset:target_offset + nbytes]
        view = view.cast(values.typecode)
        if op == REPLACE_OP:
            view[:] = values
            return
        combine = _COMBINE[op]
        for i, value in enumerate(values):
            view[i] = combine(view[i], value)

    handle = WindowOp("accumulate", nbytes, win, env.rank, target,
                      target_offset, remote_accumulate)
    handle = yield from _post(env, win, handle, env.costs.rma_acc_post_ns)
    return handle


# ----------------------------------------------------------------------
# synchronization
# ----------------------------------------------------------------------
def flush(env, win, target: int | None = None):
    """Generator: complete this process's outstanding ops (to ``target``,
    or all targets when ``None``).

    Completion of one-sided operations is a hardware counter, so the
    thread just polls it, in the progress engine's own loop (a progress
    round per poll, so concurrently pending two-sided traffic still
    advances, as a real MPI_Win_flush would).  A transport error recorded
    for this origin raises after the loop."""
    if target is not None:
        win.comm.check_member(target, "target")
    process = env.process
    rank = process.rank
    process.spc.rma_flushes += 1
    trc = env.sched.tracer
    traced = trc.enabled
    if traced:
        tid = trc.thread_track(env.sched.current)
        trc.begin(tid, "rma.flush", "rma",
                  {"outstanding": win.outstanding(rank, target)})
    yield Delay(process.costs.rma_flush_ns)
    if win.outstanding(rank, target):
        yield from process.progress_engine.poll(
            lambda: not win.outstanding(rank, target),
            process._rma_flush_backoff_delay)
    if traced:
        trc.end(tid)
    errors = win.take_errors(rank)
    if errors:
        raise errors[0]


def win_lock_all(env, win):
    """Generator: open a shared epoch to every target at once."""
    win.open_epoch(env.rank)
    yield Delay(env.costs.lock_acquire_ns)


def win_unlock_all(env, win):
    """Generator: flush everything, close the shared epoch."""
    yield from flush(env, win, None)
    win.close_epoch(env.rank)
    yield Delay(env.costs.lock_release_ns)

