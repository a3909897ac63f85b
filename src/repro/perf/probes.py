"""Deterministic probes: small seeded runs whose counters are pinned.

One probe per family.  A probe runs a small, seeded slice of the
family's workload and returns a flat ``{metric: value}`` dict of
*deterministic* quantities: virtual-time totals, message counts, SPC
aggregates and sha256 prefixes of exported traces.  Nothing
host-dependent goes in here, and nothing another pin already holds
(the committed exhibits and analyzer output under ``results/``).

``tests/test_golden_identity.py`` compares each probe's dict with
``tests/goldens/probe_<family>.json`` on every tier-1 run, so a
difference always means behaviour drift in the simulation, never
runner noise.
"""

from __future__ import annotations

import hashlib


def _sha(text: str) -> str:
    """Short, stable content fingerprint for an exported trace."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _multirate_metrics(prefix: str, result) -> dict:
    """The deterministic core of one multirate run."""
    spc = result.spc
    return {
        f"{prefix}elapsed_ns": result.elapsed_ns,
        f"{prefix}messages": result.messages,
        f"{prefix}message_rate": round(result.message_rate, 3),
        f"{prefix}out_of_sequence": spc.out_of_sequence,
        f"{prefix}unexpected": spc.unexpected_messages,
        f"{prefix}match_time_ns": spc.match_time_ns,
        f"{prefix}events": result.events_processed,
    }


def probe_fig3() -> dict:
    """Figure 3's three panels at a small unit-of-work size."""
    from repro.core import ThreadingConfig
    from repro.experiments.figure3 import PANELS
    from repro.workloads import MultirateConfig, run_multirate

    out: dict = {}
    for panel in ("a", "b", "c"):
        progress, comm_per_pair, _ = PANELS[panel]
        result = run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            comm_per_pair=comm_per_pair),
            threading=ThreadingConfig(num_instances=20,
                                      assignment="dedicated",
                                      progress=progress))
        out.update(_multirate_metrics(f"{panel}.", result))
    return out


def probe_fig4() -> dict:
    """Figure 4: the same panels with ordering relaxed."""
    from repro.core import ThreadingConfig
    from repro.experiments.figure3 import PANELS
    from repro.workloads import MultirateConfig, run_multirate

    out: dict = {}
    for panel in ("a", "b", "c"):
        progress, comm_per_pair, _ = PANELS[panel]
        result = run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            comm_per_pair=comm_per_pair,
                            allow_overtaking=True, any_tag=True),
            threading=ThreadingConfig(num_instances=20,
                                      assignment="dedicated",
                                      progress=progress))
        out.update(_multirate_metrics(f"{panel}.", result))
    return out


def probe_fig5() -> dict:
    """Figure 5: the process and thread implementation profiles.

    The third profile, "OMPI Thread + CRIs*", runs the same simulation
    as :func:`probe_fig3`'s panel c.
    """
    from repro.baselines import profile_by_name
    from repro.workloads import MultirateConfig, run_multirate

    out: dict = {}
    for key, name in (("process", "OMPI Process"),
                      ("thread", "OMPI Thread")):
        profile = profile_by_name(name)
        result = run_multirate(
            MultirateConfig(pairs=8, window=64, windows=2,
                            entity_mode=profile.entity_mode,
                            comm_per_pair=profile.comm_per_pair),
            threading=profile.config, costs=profile.costs())
        out[f"{key}.elapsed_ns"] = result.elapsed_ns
        out[f"{key}.message_rate"] = round(result.message_rate, 3)
    return out


def _rmamt_metrics(testbed, threads: int, ops: int) -> dict:
    from repro.core import ThreadingConfig
    from repro.workloads import RmaMtConfig, run_rmamt

    result = run_rmamt(
        RmaMtConfig(threads=threads, ops_per_thread=ops, msg_bytes=128),
        threading=ThreadingConfig(num_instances=testbed.default_instances,
                                  assignment="dedicated"),
        costs=testbed.costs, fabric=testbed.fabric)
    return {
        "elapsed_ns": result.elapsed_ns,
        "message_rate": round(result.message_rate, 3),
        "events": result.events_processed,
        "peak_rate": round(result.peak_rate, 3),
    }


def probe_fig6() -> dict:
    """Figure 6: RMA-MT put+flush on the Haswell/Aries preset."""
    from repro.experiments.testbeds import TRINITITE_HASWELL

    return _rmamt_metrics(TRINITITE_HASWELL, threads=16, ops=150)


def probe_fig7() -> dict:
    """Figure 7: RMA-MT put+flush on the KNL/Aries preset."""
    from repro.experiments.testbeds import TRINITITE_KNL

    return _rmamt_metrics(TRINITITE_KNL, threads=32, ops=100)


def probe_table2() -> dict:
    """Table II: SPC counters of the serial 20-pair cell."""
    from repro.core import ThreadingConfig
    from repro.workloads import MultirateConfig, run_multirate

    result = run_multirate(
        MultirateConfig(pairs=20, window=64, windows=2),
        threading=ThreadingConfig(num_instances=20, assignment="dedicated",
                                  progress="serial"))
    out = _multirate_metrics("", result)
    out["oos_fraction"] = round(result.spc.out_of_sequence_fraction, 6)
    return out


def probe_simcore() -> dict:
    """Simulation-core invariants: scheduler, lock, match queue, e2e.

    The lock run and the e2e run carry a :class:`SchedStats`, so their
    event-loop counters are pinned too.
    """
    from repro.mpi.matchqueue import MatchQueue
    from repro.simthread import Delay, SchedStats, Scheduler, SimLock
    from repro.workloads import MultirateConfig, run_multirate

    sched = Scheduler(seed=1)

    def worker():
        for _ in range(500):
            yield Delay(100)

    for _ in range(20):
        sched.spawn(worker())
    sched.run()

    lock_sched = Scheduler(seed=2)
    lock_stats = SchedStats()
    lock_sched.set_stats(lock_stats)
    lock = SimLock(lock_sched)

    def locker():
        for _ in range(200):
            yield from lock.acquire()
            yield Delay(50)
            yield lock.release()

    for _ in range(8):
        lock_sched.spawn(locker())
    lock_elapsed = lock_sched.run()

    q = MatchQueue(entry_wildcards=True)
    for i in range(2000):
        q.insert(i % 4, i % 16, i)
    matched = sum(1 for i in range(2000) if q.match(i % 4, i % 16) is not None)

    e2e_stats = SchedStats()
    e2e = run_multirate(MultirateConfig(pairs=4, window=32, windows=2),
                        instrument=lambda s, _world: s.set_stats(e2e_stats))
    out = {
        "sched_events": sched.events_processed,
        "lock_acquisitions": lock.acquisitions,
        "lock_elapsed_ns": lock_elapsed,
        "matchqueue_matched": matched,
        "e2e_elapsed_ns": e2e.elapsed_ns,
        "e2e_messages": e2e.messages,
    }
    for prefix, stats in (("lock_", lock_stats), ("e2e_", e2e_stats)):
        out.update((prefix + name, value)
                   for name, value in stats.as_dict().items())
    return out


def probe_obs() -> dict:
    """Trace fingerprints of the seeded fig3a and chaos runs.

    The export carries every span and the run's virtual time, so its
    hash covers the span count and the elapsed time too.
    """
    from repro.obs.export import to_chrome_json
    from repro.obs.scenarios import traced_run

    return {f"{exp}.trace_sha": _sha(to_chrome_json(traced_run(exp).tracer))
            for exp in ("fig3a", "chaos")}


#: family name -> probe; one golden ``tests/goldens/probe_<family>.json`` each
PROBES = {
    "fig3": probe_fig3,
    "fig4": probe_fig4,
    "fig5": probe_fig5,
    "fig6": probe_fig6,
    "fig7": probe_fig7,
    "obs": probe_obs,
    "simcore": probe_simcore,
    "table2": probe_table2,
}
