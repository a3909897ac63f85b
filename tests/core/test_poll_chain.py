"""A thread waiting in the progress engine resumes a short, stable chain.

Host speed is not gated in CI, so these tests pin the shape the speed
comes from.  A simulated thread is one chain of generators joined by
``yield from``, and every event re-enters each frame on it.  A waiting
thread parks in its engine's ``poll`` loop for the whole wait: two
frames above the loop (worker -> ``waitall`` or ``ops.flush``), and the
same loop generator from the first round to the last.  Probes are
``call_at`` callbacks, which run while every thread is parked.
"""

import pytest

from repro.core import ThreadingConfig
from repro.core import progress as progress_module
from repro.experiments.testbeds import TRINITITE_HASWELL
from repro.mpi import MpiWorld
from repro.mpi.errors import TransportError
from repro.simthread import Scheduler
from repro.workloads import MultirateConfig, RmaMtConfig, run_multirate, run_rmamt



def is_engine_loop(gen):
    """A progress-engine round or loop frame (not the per-CRI helper)."""
    code = gen.gi_code
    return (code.co_filename == progress_module.__file__
            and code.co_name != "_progress_instance")


def chain(thread):
    """The generators a resume of ``thread`` re-enters, outermost first."""
    gens = []
    gen = thread._gen
    while gen is not None:
        gens.append(gen)
        gen = gen.gi_yieldfrom
    return gens


def engine_frames(sched):
    """``{thread name: (chain, engine loop generator)}`` for every live
    thread with an engine loop on its chain."""
    out = {}
    for thread in sched._threads:
        if thread.done:
            continue
        gens = chain(thread)
        for gen in gens:
            if is_engine_loop(gen):
                out[thread.name] = (gens, gen)
                break
    return out


def probed_run(run, every_ns, until_ns):
    """Run ``run(instrument)`` with a probe every ``every_ns``; returns
    ``[(engine calls so far, engine_frames), ...]``, one per probe."""
    probes = []

    def instrument(sched, world):
        engine = world.processes[0].progress_engine

        def probe():
            probes.append((engine.calls, engine_frames(sched)))

        for when in range(every_ns, until_ns, every_ns):
            sched.call_at(when, probe)

    run(instrument)
    return probes


def multirate(instrument):
    return run_multirate(
        MultirateConfig(pairs=4, window=16, windows=2),
        threading=ThreadingConfig(num_instances=4, assignment="dedicated",
                                  progress="concurrent"),
        instrument=instrument)


def rma_flush(progress):
    def run(instrument):
        return run_rmamt(
            RmaMtConfig(threads=4, ops_per_thread=10, msg_bytes=16384),
            threading=ThreadingConfig(num_instances=32, assignment="dedicated",
                                      progress=progress),
            costs=TRINITITE_HASWELL.costs, fabric=TRINITITE_HASWELL.fabric,
            instrument=instrument)
    return run


@pytest.mark.parametrize("run", [multirate, rma_flush("concurrent"),
                                 rma_flush("serial")],
                         ids=["multirate-concurrent", "rma-flush-concurrent",
                              "rma-flush-serial"])
def test_a_thread_in_the_engine_loop_is_at_most_three_frames_deep(run):
    spinning = []
    for _, frames in probed_run(run, every_ns=2_000, until_ns=400_000):
        for name, (gens, loop) in frames.items():
            if gens[-1] is loop:  # parked in the loop itself, not below it
                spinning.append((name, [g.gi_code.co_name for g in gens]))
    assert spinning, "no probe caught a thread spinning in the engine loop"
    for name, names in spinning:
        # worker -> waitall / ops.flush -> the engine's poll loop
        assert len(names) <= 3, (name, names)


@pytest.mark.parametrize("progress", ["concurrent", "serial"])
def test_a_flush_keeps_one_engine_loop_across_rounds(progress):
    probes = probed_run(rma_flush(progress), every_ns=5_000, until_ns=200_000)
    compared = 0
    for (calls0, before), (calls1, after) in zip(probes, probes[1:]):
        if calls1 - calls0 < 2 * len(before):
            continue  # not several rounds apart
        for name, (_, loop) in before.items():
            if name in after:
                assert after[name][1] is loop, name
                compared += 1
    assert compared >= 4, "too few pairs of probes caught a flush twice"


def test_waitall_raises_the_first_failure_without_waiting_on_the_rest():
    sched = Scheduler(seed=3)
    world = MpiWorld(sched, nprocs=2)
    env = world.env(0, "waiter")
    comm = world.comm_world
    error = TransportError("injected")
    outcome = []

    def waiter():
        failing = yield from env.irecv(comm, src=1, tag=1)
        pending = yield from env.irecv(comm, src=1, tag=2)
        fail_at = sched.now + 5_000
        sched.call_at(fail_at, failing._fail, error, fail_at)
        try:
            yield from env.waitall([failing, pending])
        except TransportError as exc:
            outcome.append((exc, sched.now - fail_at, pending.completed))

    sched.spawn(waiter())
    # nothing ever sends tag 2: a waitall that waited on it would spin
    # until max_time and record nothing
    sched.run(max_time=1_000_000)
    (exc, late_ns, pending_done), = outcome
    assert exc is error
    assert not pending_done
    assert 0 <= late_ns < 5_000  # raised at the next check, not later
