"""SimThread lifecycle: names and timestamps."""

from repro.simthread import Delay, Scheduler


def test_thread_names_default_and_custom():
    sched = Scheduler()

    def noop():
        return
        yield

    a = sched.spawn(noop())
    b = sched.spawn(noop(), name="bob")
    assert a.name.startswith("thread-")
    assert b.name == "bob"


def test_started_and_finished_timestamps():
    sched = Scheduler(jitter=0.0)
    spawned = []

    def spawner():
        yield Delay(100)
        spawned.append(sched.spawn(late()))

    def late():
        yield Delay(50)

    sched.spawn(spawner())
    sched.run()
    late_thread, = spawned
    assert late_thread.started_at == 100
    assert late_thread.finished_at == 150
