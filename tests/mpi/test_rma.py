"""One-sided communication: puts/gets/accumulates, the lock_all epoch, flush."""

from array import array

import pytest

from repro.mpi import EpochError, RankError
from repro.mpi.rma import ops as rma_ops
from repro.mpi.rma.window import WindowOp
from tests.conftest import make_world


def run_one(sched, world, body, rank=0):
    t = sched.spawn(body(world.env(rank)))
    sched.run()
    return t


def test_put_writes_target_memory(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 64)

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=8, target_offset=8, data=b"12345678")
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)
    assert bytes(win.buffer(1)[8:16]) == b"12345678"
    assert bytes(win.buffer(1)[:8]) == b"\x00" * 8


def test_put_without_epoch_rejected(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 16)

    def body(env):
        yield from env.put(win, target=1, nbytes=4)

    sched.spawn(body(world.env(0)))
    with pytest.raises(EpochError):
        sched.run()


def test_get_reads_target_memory(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 32)
    win.buffer(1)[:4] = b"DATA"

    def body(env):
        yield from env.win_lock_all(win)
        op = yield from env.get(win, target=1, nbytes=4)
        yield from env.flush(win)
        yield from env.win_unlock_all(win)
        return op.result

    t = run_one(sched, world, body)
    assert t.result == b"DATA"


def test_accumulate_sum_and_replace(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 64)

    def body(env):
        from repro.mpi.rma import ops
        yield from env.win_lock_all(win)
        yield from env.accumulate(win, 1, array("q", [10, 20]))
        yield from env.accumulate(win, 1, array("q", [1, 2]))
        yield from env.accumulate(win, 1, array("q", [-5]), target_offset=16,
                                  op=ops.REPLACE_OP)
        yield from env.accumulate(win, 1, array("d", [0.25]), target_offset=24)
        yield from env.accumulate(win, 1, array("d", [1.5]), target_offset=24)
        yield from env.flush(win)
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)
    buf = memoryview(win.buffer(1))
    assert buf[:24].cast("q").tolist() == [11, 22, -5]
    assert buf[24:32].cast("d").tolist() == [1.75]


def test_accumulate_max_min(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 64)
    memoryview(win.buffer(1))[:8].cast("q")[0] = 50

    def body(env):
        from repro.mpi.rma import ops
        yield from env.win_lock_all(win)
        yield from env.accumulate(win, 1, array("q", [10]), op=ops.MAX_OP)
        yield from env.flush(win)
        yield from env.accumulate(win, 1, array("q", [7]), op=ops.MIN_OP)
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)
    assert memoryview(win.buffer(1))[:8].cast("q")[0] == 7


@pytest.mark.parametrize("values", [[1, 2], (1,), b"\x01" * 8])
def test_accumulate_requires_array(sched, world, values):
    win = world.env(0).win_allocate(world.comm_world, 16)

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.accumulate(win, 1, values)

    sched.spawn(body(world.env(0)))
    with pytest.raises(TypeError, match="array.array"):
        sched.run()


def test_accumulate_integer_overflow_raises(sched, world):
    """Integer sums do not wrap: past INT64_MAX the apply step raises."""
    win = world.env(0).win_allocate(world.comm_world, 8)
    memoryview(win.buffer(1)).cast("q")[0] = 2 ** 63 - 1

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.accumulate(win, 1, array("q", [1]))
        yield from env.flush(win)

    sched.spawn(body(world.env(0)))
    with pytest.raises(ValueError, match="invalid value for format 'q'"):
        sched.run()


def test_flush_waits_for_all_outstanding(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 8)

    def body(env):
        yield from env.win_lock_all(win)
        for _ in range(30):
            yield from env.put(win, target=1, nbytes=4)
        assert win.outstanding(0) > 0
        yield from env.flush(win)
        assert win.outstanding(0) == 0
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)


def test_flush_specific_target(sched):
    world = make_world(sched, nprocs=3)
    win = world.env(0).win_allocate(world.comm_world, 4096)

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=4)
        to2 = []
        for _ in range(4):
            op = yield from env.put(win, target=2, nbytes=4096)
            to2.append(op)
        yield from env.flush(win, target=1)
        assert win.outstanding(0, target=1) == 0
        # flushing target 1 neither completes nor forgets target 2's ops
        pending2 = sum(not op.completed for op in to2)
        assert win.outstanding(0, target=2) == pending2
        assert win.outstanding(0) == pending2
        yield from env.flush(win)
        assert win.outstanding(0, target=2) == win.outstanding(0) == 0
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)


def test_outstanding_matches_reference_model(sched):
    """Per-target and total counts track a plain list of issued ops while
    threads interleave put/get/accumulate to two targets."""
    world = make_world(sched, nprocs=3)
    win = world.env(0).win_allocate(world.comm_world, 1024)
    win.open_epoch(0)
    issued = []
    track = win.track

    def recording_track(op):
        # record at registration: another thread may be mid-post
        issued.append(op)
        track(op)

    win.track = recording_track
    checks = []

    def check():
        expected = {t: sum(op.target == t and not op.completed for op in issued)
                    for t in (1, 2)}
        for t, n in expected.items():
            assert win.outstanding(0, t) == n
        assert win.outstanding(0) == sum(expected.values())
        checks.append(expected)

    def worker(env, first):
        for i in range(12):
            target = 1 + (first + i) % 2
            kind = (first + i) % 3
            if kind == 0:
                yield from env.put(win, target=target, nbytes=1024)
            elif kind == 1:
                yield from env.get(win, target=target, nbytes=512)
            else:
                yield from env.accumulate(win, target, array("q", [i]),
                                          target_offset=8 * first,
                                          op=rma_ops.SUM_OP)
            check()
            if i % 4 == 3:
                yield from env.flush(win, target=target)
                check()
                assert win.outstanding(0, target) == 0
        yield from env.flush(win)
        check()

    for first in range(3):
        sched.spawn(worker(world.env(0, f"t{first}"), first))
    sched.run()
    assert len(issued) == 36
    assert win.outstanding(0) == 0
    # the interleaving really left ops pending to both targets at once
    assert any(c[1] and c[2] for c in checks)


def test_retire_is_idempotent(sched):
    """A transport failure and a completion may both retire one op: the
    second retirement must change no count."""
    world = make_world(sched, nprocs=3)
    win = world.env(0).win_allocate(world.comm_world, 8)
    ops = [WindowOp("put", 4, win, 0, target, 0) for target in (1, 1, 2)]
    for op in ops:
        win.track(op)

    def counts():
        return win.outstanding(0, 1), win.outstanding(0, 2), win.outstanding(0)

    assert counts() == (2, 1, 3)
    ops[0].on_completed()
    assert counts() == (1, 1, 2)
    ops[0].on_completed()
    assert counts() == (1, 1, 2)
    for op in ops:
        op.on_completed()
        op.on_completed()
    assert counts() == (0, 0, 0)


def test_epoch_errors(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 8)

    def double_lock(env):
        yield from env.win_lock_all(win)
        yield from env.win_lock_all(win)

    sched.spawn(double_lock(world.env(0)))
    with pytest.raises(EpochError, match="already holds"):
        sched.run()

    sched2 = type(sched)(seed=1)
    world2 = make_world(sched2)
    win2 = world2.env(0).win_allocate(world2.comm_world, 8)

    def unlock_without_lock(env):
        yield from env.win_unlock_all(win2)

    sched2.spawn(unlock_without_lock(world2.env(0)))
    with pytest.raises(EpochError, match="no open epoch"):
        sched2.run()


def test_out_of_range_access_rejected(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 16)

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=32)

    sched.spawn(body(world.env(0)))
    with pytest.raises(ValueError, match="outside window"):
        sched.run()


def test_put_target_must_be_member(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 8)

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=9, nbytes=1)

    sched.spawn(body(world.env(0)))
    with pytest.raises(RankError):
        sched.run()


def test_flush_target_must_be_member(sched, world):
    """flush to a rank outside the group raises RankError, as put does,
    and counts no flush; a flush of every target still completes."""
    win = world.env(0).win_allocate(world.comm_world, 8)
    raised = []

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=4)
        try:
            yield from env.flush(win, 99)
        except RankError:
            raised.append("flush")
        yield from env.flush(win)
        assert win.outstanding(0) == 0
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)
    assert raised == ["flush"]
    assert world.processes[0].spc.rma_flushes == 2  # flush + unlock_all


def test_put_data_length_must_match(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 8)

    def body(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=4, data=b"toolong")

    sched.spawn(body(world.env(0)))
    with pytest.raises(ValueError, match="bytes"):
        sched.run()
    assert len(win.buffer(1)) == 8


def test_rma_spc_counters(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 8)

    def body(env):
        yield from env.win_lock_all(win)
        for _ in range(5):
            yield from env.put(win, target=1, nbytes=4)
        yield from env.flush(win)
        yield from env.win_unlock_all(win)

    run_one(sched, world, body)
    spc = world.processes[0].spc
    assert spc.rma_ops == 5
    assert spc.rma_flushes == 2  # explicit flush + unlock_all's flush


def test_negative_window_size_rejected(sched, world):
    with pytest.raises(ValueError):
        world.env(0).win_allocate(world.comm_world, -1)
