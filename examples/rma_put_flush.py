#!/usr/bin/env python3
"""One-sided (RMA) example: correctness walkthrough + a thread sweep.

First drives the full one-sided API on real window memory (put, get,
accumulate, lock/flush epochs), then reruns the paper's RMA-MT sweep at a
few thread counts to show dedicated CRIs scaling while a single shared
instance collapses (Figures 6/7).

Run:  python examples/rma_put_flush.py
"""

from array import array

from repro import (
    MpiWorld,
    RmaMtConfig,
    Scheduler,
    ThreadingConfig,
    run_rmamt,
)
from repro.experiments.testbeds import TRINITITE_HASWELL


def correctness_tour():
    sched = Scheduler(seed=11)
    world = MpiWorld(sched, nprocs=2,
                     config=ThreadingConfig(num_instances=4, assignment="dedicated"))
    env = world.env(0, "origin")
    win = env.win_allocate(world.comm_world, 256)

    def origin(env):
        yield from env.win_lock_all(win)
        # remote write
        yield from env.put(win, target=1, nbytes=11, target_offset=0,
                           data=b"hello world")
        # remote atomics on a typed view
        yield from env.accumulate(win, target=1,
                                  values=array("q", [40, 1]),
                                  target_offset=64)
        yield from env.accumulate(win, target=1,
                                  values=array("q", [2, 1]),
                                  target_offset=64)
        yield from env.flush(win)
        # remote read of what we just wrote
        op = yield from env.get(win, target=1, nbytes=11, target_offset=0)
        yield from env.win_unlock_all(win)
        return op.result

    t = sched.spawn(origin(env))
    sched.run()
    counters = memoryview(win.buffer(1))[64:80].cast("q").tolist()
    print(f"get returned      : {t.result!r}")
    print(f"accumulated int64s: {counters}  (expected [42, 2])")


def thread_sweep():
    testbed = TRINITITE_HASWELL
    print(f"\nRMA-MT put+flush sweep on {testbed.name} "
          f"(8-byte puts, {testbed.default_instances} CRIs available)")
    print(f"{'threads':>8} {'single CRI':>14} {'dedicated CRIs':>16} {'speedup':>9}")
    for threads in (1, 4, 16, 32):
        cfg = RmaMtConfig(threads=threads, ops_per_thread=200, msg_bytes=8)
        single = run_rmamt(cfg, threading=ThreadingConfig(num_instances=1),
                           costs=testbed.costs, fabric=testbed.fabric)
        dedicated = run_rmamt(
            cfg,
            threading=ThreadingConfig(num_instances=testbed.default_instances,
                                      assignment="dedicated"),
            costs=testbed.costs, fabric=testbed.fabric)
        print(f"{threads:>8} {single.message_rate:>14,.0f} "
              f"{dedicated.message_rate:>16,.0f} "
              f"{dedicated.message_rate / single.message_rate:>8.1f}x")


if __name__ == "__main__":
    correctness_tour()
    thread_sweep()
