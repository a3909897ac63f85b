"""Two-sided point-to-point: semantics the MPI standard requires."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, RankError, TagError, TruncationError
from repro.mpi.constants import TAG_UB
from tests.conftest import make_world


def run_pair(sched, world, sender_body, receiver_body):
    s = sched.spawn(sender_body(world.env(0)), name="sender")
    r = sched.spawn(receiver_body(world.env(1)), name="receiver")
    sched.run()
    return s, r


def test_blocking_send_recv_roundtrip(sched, world):
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=7, nbytes=4, payload="hi")

    def receiver(env):
        data, status = yield from env.recv(world.comm_world, src=0, tag=7, nbytes=4)
        return data, status

    _, r = run_pair(sched, world, sender, receiver)
    data, status = r.result
    assert data == "hi"
    assert (status.source, status.tag, status.nbytes) == (0, 7, 4)


def test_fifo_ordering_guarantee_single_thread(sched, world):
    """Per (source, communicator) messages arrive in send order."""
    N = 200

    def sender(env):
        for i in range(N):
            yield from env.send(world.comm_world, dst=1, tag=1, payload=i)

    def receiver(env):
        got = []
        for _ in range(N):
            data, _ = yield from env.recv(world.comm_world, src=0, tag=1)
            got.append(data)
        return got

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == list(range(N))


def test_tag_selectivity(sched, world):
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=1, payload="one")
        yield from env.send(world.comm_world, dst=1, tag=2, payload="two")

    def receiver(env):
        # Receive tag 2 first even though tag 1 was sent first.
        data2, _ = yield from env.recv(world.comm_world, src=0, tag=2)
        data1, _ = yield from env.recv(world.comm_world, src=0, tag=1)
        return data1, data2

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == ("one", "two")


def test_any_tag_takes_first_sent(sched, world):
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=9, payload="a")
        yield from env.send(world.comm_world, dst=1, tag=3, payload="b")

    def receiver(env):
        d1, s1 = yield from env.recv(world.comm_world, src=0, tag=ANY_TAG)
        d2, s2 = yield from env.recv(world.comm_world, src=0, tag=ANY_TAG)
        return (d1, s1.tag), (d2, s2.tag)

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == (("a", 9), ("b", 3))


def test_any_source(sched):
    world = make_world(sched, nprocs=3)

    def sender(env, payload):
        yield from env.send(world.comm_world, dst=2, tag=0, payload=payload)

    def receiver(env):
        seen = set()
        for _ in range(2):
            data, status = yield from env.recv(world.comm_world, src=ANY_SOURCE, tag=0)
            seen.add((status.source, data))
        return seen

    sched.spawn(sender(world.env(0), "from0"))
    sched.spawn(sender(world.env(1), "from1"))
    r = sched.spawn(receiver(world.env(2)))
    sched.run()
    assert r.result == {(0, "from0"), (1, "from1")}


def test_isend_irecv_waitall(sched, world):
    N = 50

    def sender(env):
        reqs = []
        for i in range(N):
            reqs.append((yield from env.isend(world.comm_world, dst=1, tag=0, payload=i)))
        yield from env.waitall(reqs)
        assert all(r.completed for r in reqs)

    def receiver(env):
        reqs = []
        for _ in range(N):
            reqs.append((yield from env.irecv(world.comm_world, src=0, tag=0)))
        yield from env.waitall(reqs)
        return [r.data for r in reqs]

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == list(range(N))


def test_unexpected_messages_matched_by_late_posts(sched, world):
    """Sends complete eagerly; receives posted later still match in order."""
    def sender(env):
        for i in range(10):
            yield from env.send(world.comm_world, dst=1, tag=4, payload=i)

    def receiver(env):
        # Idle long enough for everything to arrive unexpected.
        from repro.simthread import Delay
        yield Delay(500_000)
        got = []
        for _ in range(10):
            data, _ = yield from env.recv(world.comm_world, src=0, tag=4)
            got.append(data)
        return got

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == list(range(10))
    # Messages sit in the CQ until the first wait() drives progress, by
    # which time one receive is already posted -- so 9 of 10 arrive
    # unexpected and the first matches a posted receive directly.
    assert world.processes[1].spc.unexpected_messages == 9


def test_truncation_error_raised_at_wait(sched, world):
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=0, nbytes=100)

    def receiver(env):
        req = yield from env.irecv(world.comm_world, src=0, tag=0, nbytes=10)
        with pytest.raises(TruncationError):
            yield from env.wait(req)
        return "raised"

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == "raised"


def test_zero_capacity_means_any_size(sched, world):
    def sender(env):
        yield from env.send(world.comm_world, dst=1, tag=0, nbytes=5000)

    def receiver(env):
        data, status = yield from env.recv(world.comm_world, src=0, tag=0, nbytes=0)
        return status.nbytes

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == 5000


def test_invalid_arguments_rejected(sched, world):
    env = world.env(0)

    def bad_tag_send():
        yield from env.isend(world.comm_world, dst=1, tag=-5)

    def bad_tag_high():
        yield from env.isend(world.comm_world, dst=1, tag=TAG_UB + 1)

    def any_tag_send():
        yield from env.isend(world.comm_world, dst=1, tag=ANY_TAG)

    def bad_rank():
        yield from env.isend(world.comm_world, dst=99, tag=0)

    def bad_bytes():
        yield from env.isend(world.comm_world, dst=1, tag=0, nbytes=-1)

    for gen, exc in [(bad_tag_send(), TagError), (bad_tag_high(), TagError),
                     (any_tag_send(), TagError), (bad_rank(), RankError),
                     (bad_bytes(), ValueError)]:
        t = sched.spawn(gen)
        with pytest.raises(exc):
            sched.run()


def test_messages_isolated_between_communicators(sched, world):
    comm_a = world.create_comm((0, 1), name="A")
    comm_b = world.create_comm((0, 1), name="B")

    def sender(env):
        yield from env.send(comm_a, dst=1, tag=0, payload="on-A")
        yield from env.send(comm_b, dst=1, tag=0, payload="on-B")

    def receiver(env):
        data_b, _ = yield from env.recv(comm_b, src=0, tag=0)
        data_a, _ = yield from env.recv(comm_a, src=0, tag=0)
        return data_a, data_b

    _, r = run_pair(sched, world, sender, receiver)
    assert r.result == ("on-A", "on-B")


def test_test_does_not_block(sched, world):
    # MPI_Test without progress is a read of the request's completed flag
    def receiver(env):
        req = yield from env.irecv(world.comm_world, src=0, tag=0)
        assert req.completed is False
        yield from env.wait(req)
        assert req.completed is True

    def sender(env):
        from repro.simthread import Delay
        yield Delay(10_000)
        yield from env.send(world.comm_world, dst=1, tag=0)

    run_pair(sched, world, sender, receiver)


def test_send_request_records_sequence(sched, world):
    def sender(env):
        reqs = []
        for _ in range(5):
            req = yield from env.isend(world.comm_world, dst=1, tag=0)
            reqs.append(req)
        yield from env.waitall(reqs)
        return [r.seq for r in reqs]

    def receiver(env):
        for _ in range(5):
            yield from env.recv(world.comm_world, src=0, tag=0)

    s = sched.spawn(sender(world.env(0)))
    sched.spawn(receiver(world.env(1)))
    sched.run()
    assert s.result == [0, 1, 2, 3, 4]
