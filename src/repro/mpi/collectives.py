"""Collective operations built on the two-sided point-to-point layer.

``allreduce`` is a linear (root-centric) reduce to ``ranks[0]`` followed
by a linear broadcast of the result.  The reduction combines in
ascending rank order, which is what non-commutative operators need.

Tags come from the internal tag space above ``TAG_UB`` and advance with a
per-(process, communicator) collective sequence number; because MPI
requires all members to invoke collectives on a communicator in the same
order (and forbids concurrent collectives on one communicator from
multiple threads), the per-process counters stay in agreement without any
extra communication.
"""

from __future__ import annotations

from repro.mpi.constants import INTERNAL_TAG_BASE

# Reduction operators: associative fold functions of two values.
SUM = "sum"
MAX = "max"
MIN = "min"
PROD = "prod"

_OPS = {
    SUM: lambda a, b: a + b,
    MAX: lambda a, b: a if a >= b else b,
    MIN: lambda a, b: a if a <= b else b,
    PROD: lambda a, b: a * b,
}

# Distinct sub-spaces per collective so overlapping phases cannot match.
_TAGS_PER_COLLECTIVE = 4


def _next_tag(env, comm) -> int:
    state = env.process.comm_state(comm)
    seq = state.coll_seq
    state.coll_seq = seq + 1
    return INTERNAL_TAG_BASE + (seq % (2 ** 16)) * _TAGS_PER_COLLECTIVE


def _op_fn(op):
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; "
                         f"use one of {sorted(_OPS)} or a callable") from None


def bcast(env, comm, root: int, payload=None, nbytes: int = 0):
    """Generator: broadcast ``payload`` from root; returns the payload."""
    comm.check_member(root, "root")
    tag = _next_tag(env, comm)
    if env.rank == root:
        reqs = []
        for r in comm.ranks:
            if r != root:
                req = yield from env._isend(comm, r, tag, nbytes, payload)
                reqs.append(req)
        yield from env.waitall(reqs)
        return payload
    data, _ = yield from env._recv(comm, src=root, tag=tag)
    return data


def reduce(env, comm, root: int, value, op=SUM, nbytes: int = 0):
    """Generator: reduce to root; returns the result at root, None elsewhere.

    Combines in ascending rank order, so non-commutative callables are
    safe.
    """
    comm.check_member(root, "root")
    fn = _op_fn(op)
    tag = _next_tag(env, comm)
    if env.rank == root:
        contributions = {root: value}
        for r in comm.ranks:
            if r != root:
                data, status = yield from env._recv(comm, src=r, tag=tag)
                contributions[status.source] = data
        acc = None
        for r in sorted(comm.ranks):
            acc = contributions[r] if acc is None else fn(acc, contributions[r])
        return acc
    req = yield from env._isend(comm, root, tag, nbytes, value)
    yield from env.wait(req)
    return None


def allreduce(env, comm, value, op=SUM, nbytes: int = 0):
    """Generator: reduce to ranks[0] then broadcast the result."""
    root = comm.ranks[0]
    result = yield from reduce(env, comm, root, value, op, nbytes)
    result = yield from bcast(env, comm, root, result, nbytes)
    return result
