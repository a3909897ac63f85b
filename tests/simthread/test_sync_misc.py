"""The intra-process barrier."""

import pytest

from repro.simthread import Delay, Scheduler, SimBarrier


class TestBarrier:
    def test_all_parties_wait_for_last(self):
        sched = Scheduler(jitter=0.0)
        barrier = SimBarrier(sched, parties=4)
        release_times = []

        def party(i):
            yield Delay(i * 100)
            yield from barrier.wait()
            release_times.append(sched.now)

        for i in range(4):
            sched.spawn(party(i))
        sched.run()
        assert len(release_times) == 4
        assert min(release_times) >= 300  # nobody released before the last arrival

    def test_barrier_is_reusable(self):
        sched = Scheduler(seed=4)
        barrier = SimBarrier(sched, parties=3)
        rounds = []

        def party(i):
            for r in range(5):
                yield Delay(10 * (i + 1))
                yield from barrier.wait()
                rounds.append(r)

        for i in range(3):
            sched.spawn(party(i))
        sched.run()
        assert barrier.generation == 5
        assert rounds.count(0) == 3 and rounds.count(4) == 3

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            SimBarrier(Scheduler(), parties=0)
