"""CRI pool and Algorithm 1 assignment strategies."""

import pytest

from repro.core import CostModel, CRIPool, ThreadingConfig
from repro.netsim import Fabric, IB_EDR
from repro.simthread import Delay, Scheduler


def make_pool(sched, instances=4, assignment="dedicated", costs=None):
    fabric = Fabric(sched, IB_EDR)
    nic = fabric.create_nic()
    return CRIPool(sched, nic, ThreadingConfig(num_instances=instances,
                                               assignment=assignment),
                   costs or CostModel())


def test_pool_creates_one_context_per_instance(sched):
    pool = make_pool(sched, instances=5)
    assert len(pool) == 5
    contexts = {cri.context for cri in pool.instances}
    assert len(contexts) == 5
    assert [cri.index for cri in pool.instances] == list(range(5))


def test_round_robin_cycles(sched):
    pool = make_pool(sched, instances=3, assignment="round_robin")
    picks = []

    def worker():
        for _ in range(7):
            cri = yield from pool.get_instance_round_robin()
            picks.append(cri.index)

    sched.spawn(worker())
    sched.run()
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_dedicated_sticks_per_thread(sched):
    pool = make_pool(sched, instances=4, assignment="dedicated")
    picks = {i: [] for i in range(3)}

    def worker(i):
        for _ in range(5):
            cri = yield from pool.get_instance()
            picks[i].append(cri.index)
            yield Delay(50)

    for i in range(3):
        sched.spawn(worker(i))
    sched.run()
    for i, seq in picks.items():
        assert len(set(seq)) == 1  # each thread always gets its instance
    assert len({seq[0] for seq in picks.values()}) == 3  # all distinct


def test_dedicated_shares_when_threads_exceed_instances(sched):
    pool = make_pool(sched, instances=2, assignment="dedicated")
    first_pick = {}

    def worker(i):
        cri = yield from pool.get_instance()
        first_pick[i] = cri.index

    for i in range(5):
        sched.spawn(worker(i))
    sched.run()
    assert set(first_pick.values()) == {0, 1}  # wrapped around, shared


def test_round_robin_assignment_mode_switch_penalty(sched):
    costs = CostModel(instance_switch_ns=10_000)
    pool = make_pool(sched, instances=4, assignment="round_robin", costs=costs)

    def worker():
        before = sched.now
        yield from pool.get_instance()   # first use: no switch
        first = sched.now - before
        before = sched.now
        yield from pool.get_instance()   # rotated: pays the switch
        second = sched.now - before
        return first, second

    t = sched.spawn(worker())
    sched.run()
    first, second = t.result
    assert second - first > 9_000


def test_switch_penalty_override(sched):
    costs = CostModel(instance_switch_ns=0, rma_instance_switch_ns=50_000)
    pool = make_pool(sched, instances=2, assignment="round_robin", costs=costs)

    def worker():
        yield from pool.get_instance(switch_ns=costs.rma_instance_switch_ns)
        before = sched.now
        yield from pool.get_instance(switch_ns=costs.rma_instance_switch_ns)
        return sched.now - before

    t = sched.spawn(worker())
    sched.run()
    assert t.result > 45_000
    assert pool.switches == 1


def test_dedicated_never_switches(sched):
    pool = make_pool(sched, instances=4, assignment="dedicated")

    def worker():
        for _ in range(10):
            yield from pool.get_instance()

    for _ in range(4):
        sched.spawn(worker())
    sched.run()
    assert pool.switches == 0


def test_dedicated_instance_is_stable_and_tickets_count(sched):
    pool = make_pool(sched, instances=3, assignment="dedicated")
    log = {}

    def worker(i):
        first = yield from pool.get_instance()   # first touch takes a ticket
        again = yield from pool.get_instance()   # TLS hit: no ticket
        assert pool.tls.get() is first
        ticket = pool.take_ticket()
        log[i] = (first, again, ticket)
        yield pool.ticket_delay

    for i in range(2):
        sched.spawn(worker(i))
    sched.run()
    for first, again, _ in log.values():
        assert first is again  # the dedicated instance is stable
    # the first touches took tickets 0 and 1, hence instances 0 and 1
    assert [log[i][0] for i in range(2)] == pool.instances[:2]
    assert sorted(entry[2] for entry in log.values()) == [2, 3]
    assert pool.take_ticket() == 4  # four tickets taken, one apiece
    assert pool.ticket_delay.ns == CostModel().atomic_rmw_ns
