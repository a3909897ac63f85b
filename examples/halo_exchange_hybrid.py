#!/usr/bin/env python3
"""Hybrid MPI+threads halo exchange: the MPI+X pattern the paper targets.

A 1-D domain is split across MPI processes; inside each process, worker
threads own sub-slabs and exchange halos with neighbouring ranks through
MPI_THREAD_MULTIPLE-style concurrent calls, then the process reduces a
residual with an allreduce.  The example runs the same computation under
the original single-instance design and under the paper's dedicated-CRI
design, verifying the numerics are identical while the communication time
differs.

Run:  python examples/halo_exchange_hybrid.py
"""

import random

from repro import MpiWorld, Scheduler, ThreadingConfig

NPROCS = 4
THREADS_PER_PROC = 4
CELLS_PER_THREAD = 64
ITERATIONS = 40
HALO_BYTES = 8


def thread_slab(env, comm, state, rank, tid, barrier, residuals):
    """One worker thread: exchange row halos with the same-row thread of
    the neighbouring ranks (a 2-D decomposition: ranks are columns,
    threads are rows), then relax its slab.

    Every thread communicates every iteration, so the process's MPI
    library sees THREADS_PER_PROC concurrent senders and receivers --
    the exact MPI_THREAD_MULTIPLE pressure the paper studies.
    """
    left_rank = rank - 1 if rank > 0 else None
    right_rank = rank + 1 if rank < NPROCS - 1 else None
    slab = state[rank][tid]

    for it in range(ITERATIONS):
        reqs = []
        recvs = {}
        # Tags separate rows and directions within the shared communicator.
        tag = tid * 2
        if left_rank is not None:
            r = yield from env.isend(comm, dst=left_rank, tag=tag,
                                     nbytes=HALO_BYTES, payload=float(slab[0]))
            reqs.append(r)
            recvs["left"] = yield from env.irecv(comm, src=left_rank, tag=tag,
                                                 nbytes=HALO_BYTES)
            reqs.append(recvs["left"])
        if right_rank is not None:
            r = yield from env.isend(comm, dst=right_rank, tag=tag,
                                     nbytes=HALO_BYTES, payload=float(slab[-1]))
            reqs.append(r)
            recvs["right"] = yield from env.irecv(comm, src=right_rank, tag=tag,
                                                  nbytes=HALO_BYTES)
            reqs.append(recvs["right"])
        yield from env.waitall(reqs)

        left_halo = recvs["left"].data if "left" in recvs else slab[0]
        right_halo = recvs["right"].data if "right" in recvs else slab[-1]

        # Jacobi relaxation on the row slab.  Reads and writes are
        # separated by a barrier so the numerics cannot depend on the
        # communication design's timing.
        padded = [left_halo, *slab, right_halo]
        new = [0.5 * (a + b) for a, b in zip(padded, padded[2:])]
        residuals[rank][tid] = max(abs(n - old) for n, old in zip(new, slab))
        yield from barrier.wait()   # everyone has read the old state
        slab[:] = new

        # Intra-process barrier between iterations; the lead thread also
        # reduces the global residual with an allreduce.
        yield from barrier.wait()
        if tid == 0:
            local = max(residuals[rank])
            global_res = yield from env.allreduce(comm, value=local, op="max")
            residuals[rank + NPROCS] = global_res  # stash per process
        yield from barrier.wait()


def run(config):
    from repro.simthread import SimBarrier

    sched = Scheduler(seed=5)
    world = MpiWorld(sched, nprocs=NPROCS, config=config)
    comm = world.comm_world

    rng = random.Random(1234)
    state = {r: [[rng.random() for _ in range(CELLS_PER_THREAD)]
                 for _ in range(THREADS_PER_PROC)]
             for r in range(NPROCS)}
    residuals = {r: [0.0] * THREADS_PER_PROC for r in range(NPROCS)}
    for r in range(NPROCS):
        residuals[r + NPROCS] = None

    for r in range(NPROCS):
        barrier = SimBarrier(sched, THREADS_PER_PROC)
        for t in range(THREADS_PER_PROC):
            sched.spawn(thread_slab(world.env(r, f"r{r}t{t}"), comm, state,
                                    r, t, barrier, residuals))
    elapsed = sched.run()
    checksum = sum(sum(state[r][t]) for r in range(NPROCS)
                   for t in range(THREADS_PER_PROC))
    return elapsed, checksum, residuals[NPROCS]


def main():
    original = ThreadingConfig(num_instances=1, assignment="dedicated",
                               progress="serial")
    cris = ThreadingConfig(num_instances=THREADS_PER_PROC,
                           assignment="dedicated", progress="concurrent")

    t_orig, sum_orig, res_orig = run(original)
    t_cris, sum_cris, res_cris = run(cris)

    assert abs(sum_orig - sum_cris) < 1e-9, "designs must not change numerics"
    print(f"domain checksum     : {sum_orig:.6f} (identical under both designs)")
    print(f"final max residual  : {res_orig:.6f}")
    print(f"original design     : {t_orig / 1e6:.3f} ms virtual time")
    print(f"dedicated-CRI design: {t_cris / 1e6:.3f} ms virtual time "
          f"(ratio {t_orig / t_cris:.2f}x)")
    print()
    print("A small halo exchange is latency-bound: a handful of in-flight")
    print("messages per iteration never contends the instance lock, so the")
    print("designs tie -- the paper's gains live in message-RATE-bound code")
    print("paths (see examples/multirate_pairwise.py).  What this example")
    print("certifies is that the threading designs are drop-in equivalent")
    print("for a real MPI+threads application: same results, no regression.")


if __name__ == "__main__":
    main()
