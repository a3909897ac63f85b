"""Progress engines: serial exclusivity, Algorithm 2 behaviour."""

import pytest

from repro.core import CostModel, CRIPool, ThreadingConfig
from repro.core.progress import ConcurrentProgress, SerialProgress, make_progress_engine
from repro.netsim import Fabric, IB_EDR
from repro.netsim.cq import RecvArrival
from repro.netsim.message import Envelope
from repro.simthread import Delay, Scheduler


def build(sched, instances=4, progress="serial", assignment="dedicated",
          dispatch=None, dispatch_cost=100):
    fabric = Fabric(sched, IB_EDR)
    nic = fabric.create_nic()
    config = ThreadingConfig(num_instances=instances, assignment=assignment,
                             progress=progress)
    pool = CRIPool(sched, nic, config, CostModel())
    handled = []

    def default_dispatch(event):
        handled.append(event)
        yield Delay(dispatch_cost)
        return 1

    engine = make_progress_engine(sched, pool, config, CostModel(),
                                  dispatch or default_dispatch)
    return pool, engine, handled


def inject(pool, index, n, tag=0):
    ctx = pool.instances[index].context
    for i in range(n):
        ctx.deliver(Envelope(src=0, dst=1, comm_id=0, tag=tag, seq=i, nbytes=0))


def test_factory_selects_engine():
    sched = Scheduler()
    pool, engine, _ = build(sched, progress="serial")
    assert isinstance(engine, SerialProgress)
    pool, engine, _ = build(sched, progress="concurrent")
    assert isinstance(engine, ConcurrentProgress)


def test_serial_progress_drains_all_instances(sched):
    pool, engine, handled = build(sched, instances=4, progress="serial")
    for k in range(4):
        inject(pool, k, 3)

    def worker():
        n = yield from engine.progress()
        return n

    t = sched.spawn(worker())
    sched.run()
    assert t.result == 12
    assert len(handled) == 12


def test_serial_progress_admits_single_thread(sched):
    pool, engine, handled = build(sched, instances=1, progress="serial",
                                  dispatch_cost=10_000)
    inject(pool, 0, 5)
    outcomes = []

    def worker():
        n = yield from engine.progress()
        outcomes.append(n)

    for _ in range(4):
        sched.spawn(worker())
    sched.run()
    # One thread got everything; the others were denied (0 completions).
    assert sorted(outcomes) == [0, 0, 0, 5]
    assert engine.denied == 3


def test_concurrent_progress_dedicated_instance_first(sched):
    pool, engine, handled = build(sched, instances=4, progress="concurrent")
    picked = {}

    def worker(i):
        # Establish this thread's dedicated instance.
        cri = yield from pool.get_instance_dedicated()
        picked[i] = cri.index
        inject(pool, cri.index, 2, tag=i)
        n = yield from engine.progress()
        return n

    threads = [sched.spawn(worker(i)) for i in range(4)]
    sched.run()
    assert sorted(picked.values()) == [0, 1, 2, 3]
    assert all(t.result >= 2 for t in threads)
    assert len(handled) == 8


def test_concurrent_progress_helps_orphaned_instances(sched):
    """Events on an instance owned by no live thread still get progressed
    (Algorithm 2's round-robin fallback)."""
    pool, engine, handled = build(sched, instances=4, progress="concurrent")
    inject(pool, 3, 5)  # instance 3 has no dedicated thread

    def worker():
        # This thread's dedicated instance will be 0 (empty).
        total = 0
        for _ in range(10):
            n = yield from engine.progress()
            total += n
            if total >= 5:
                break
            yield Delay(100)
        return total

    t = sched.spawn(worker())
    sched.run()
    assert t.result == 5


def test_concurrent_progress_empty_returns_zero(sched):
    pool, engine, _ = build(sched, instances=3, progress="concurrent")

    def worker():
        n = yield from engine.progress()
        return n

    t = sched.spawn(worker())
    sched.run()
    assert t.result == 0


def test_progress_skips_locked_instance(sched):
    pool, engine, handled = build(sched, instances=2, progress="concurrent")
    inject(pool, 0, 3)
    inject(pool, 1, 3)

    def holder():
        # Take instance 0's lock and sit on it.
        yield from pool.instances[0].lock.acquire()
        yield Delay(50_000)
        yield pool.instances[0].lock.release()

    def progressor():
        yield Delay(100)
        yield from pool.get_instance_dedicated()
        n = yield from engine.progress()
        return n

    sched.spawn(holder())
    t = sched.spawn(progressor())
    sched.run()
    # The progressor cannot have drained instance 0 while it was held, but
    # the try-lock let it move on rather than block: it finished long
    # before the holder released only if it progressed instance 1 alone.
    assert t.result in (0, 3)


def test_unknown_progress_mode_rejected():
    from types import SimpleNamespace

    sched = Scheduler()
    fabric = Fabric(sched, IB_EDR)
    nic = fabric.create_nic()
    config = ThreadingConfig(num_instances=1)
    pool = CRIPool(sched, nic, config, CostModel())
    bogus = SimpleNamespace(progress="psychic", num_instances=1)
    with pytest.raises(ValueError, match="unknown progress mode"):
        make_progress_engine(sched, pool, bogus, CostModel(), None)
