"""Seeded trial lists for the three simulator workloads.

Each workload is a fixed multiset of configurations, one *round*.  A
round runs every configuration once per listed repetition, each with its
own simulation seed, in a shuffled order; the benchmark seed picks the
simulation seeds and the order, never the configurations.  Every seed
therefore measures the same mix of work, which is what keeps medians and
tails comparable across seeds.

The trial documents are plain JSON: the child interpreter that runs
them receives only these generated configs.
"""

from __future__ import annotations

import copy
import itertools
import random

#: nominal host seconds of one round on the reference host (2 vCPU Xeon,
#: Python 3.11); ``--seconds S`` runs ``max(1, round(S / ROUND_SECONDS))``
#: rounds, so the work per run is fixed by S and identical on both sides
#: of a comparison.
ROUND_SECONDS = 15


def _ordered_contended():
    # Fig. 3a/b: one shared communicator, ordering enforced, 0-byte
    # messages; 60 configurations, two seeds each: 120 trials.
    for progress, cris, assignment, pairs in itertools.product(
            ("serial", "concurrent"), (1, 10, 20),
            ("round_robin", "dedicated"), (4, 8, 12, 16, 20)):
        point = {"kind": "multirate", "testbed": "alembert",
                 "config": {"pairs": pairs, "window": 32, "windows": 2,
                            "msg_bytes": 0},
                 "threading": {"num_instances": cris,
                               "assignment": assignment,
                               "progress": progress}}
        yield from (point, point)


def _relaxed_rendezvous():
    # Fig. 3c/4c: comm per pair + overtaking + ANY_TAG, so matching is
    # bypassed; 16 KiB is above the 8 KiB eager limit (rendezvous).
    # 20 configurations, five seeds each: 100 trials.
    for msg_bytes, pairs, (cris, assignment) in itertools.product(
            (0, 16384), (2, 4, 6, 8, 10),
            ((10, "round_robin"), (20, "dedicated"))):
        point = {"kind": "multirate", "testbed": "alembert",
                 "config": {"pairs": pairs, "window": 64, "windows": 2,
                            "msg_bytes": msg_bytes, "comm_per_pair": True,
                            "allow_overtaking": True, "any_tag": True},
                 "threading": {"num_instances": cris,
                               "assignment": assignment,
                               "progress": "concurrent"}}
        yield from [point] * 5


#: the six Fig. 6 designs: (CRIs, assignment, progress); 32 is the ugni
#: default of one CRI per core on the Trinitite Haswell preset
RMA_DESIGNS = ((1, "dedicated", "serial"), (1, "dedicated", "concurrent"),
               (32, "dedicated", "serial"), (32, "dedicated", "concurrent"),
               (32, "round_robin", "serial"), (32, "round_robin", "concurrent"))


def _rma_flush():
    # Fig. 6: RMA-MT put + flush; bandwidth-bound sizes pile up
    # outstanding ops.  120 configurations; those with up to 8 threads
    # run twice, so the 16 slow trials (16 KiB at 8+ threads, 4 KiB at
    # 16) stay under a tenth of the round and p90 falls among the many
    # fast ones instead of on the gap between the two groups: 210 trials.
    for msg_bytes, (cris, assignment, progress), threads in itertools.product(
            (1, 128, 1024, 4096, 16384), RMA_DESIGNS, (2, 4, 8, 16)):
        point = {"kind": "rmamt", "testbed": "trinitite-haswell",
                 "config": {"threads": threads, "ops_per_thread": 120,
                            "msg_bytes": msg_bytes, "op": "put",
                            "sync": "flush"},
                 "threading": {"num_instances": cris,
                               "assignment": assignment,
                               "progress": progress}}
        yield from [point] * (2 if threads <= 8 else 1)


#: workload -> generator of one round's configurations (repeats included)
SIM_WORKLOADS = {
    "ordered-contended": _ordered_contended,
    "relaxed-rendezvous": _relaxed_rendezvous,
    "rma-flush": _rma_flush,
}


def round_configs(workload: str) -> list[dict]:
    """One round's configurations, repeats included (no simulation seeds)."""
    return [copy.deepcopy(point) for point in SIM_WORKLOADS[workload]()]


def rounds_for(seconds: float) -> int:
    """Rounds a run of ``seconds`` nominal seconds measures (at least one)."""
    return max(1, round(seconds / ROUND_SECONDS))


def trial_list(workload: str, seed: int, rounds: int = 1) -> list[dict]:
    """The seeded trial list: ``rounds`` shuffled rounds.

    Round ``r`` draws from ``random.Random("<workload>/<seed>/<r>")``
    (string seeding is hash-randomization-proof), so a trial's index
    identifies it for a given seed however many rounds a run makes.
    """
    trials = []
    for r in range(rounds):
        rng = random.Random(f"{workload}/{seed}/{r}")
        batch = round_configs(workload)
        for trial in batch:
            trial["config"]["seed"] = rng.randrange(1, 2 ** 31)
        rng.shuffle(batch)
        trials.extend(batch)
    return trials


def label(trial: dict) -> str:
    """Short human-readable name of one trial (span names, errors)."""
    c, t = trial["config"], trial["threading"]
    parts = [trial["kind"], f"{c['msg_bytes']}B"]
    if trial["kind"] == "multirate":
        parts.append(f"pairs={c['pairs']}")
    else:
        parts.append(f"threads={c['threads']}")
    parts += [f"cri={t['num_instances']}", t["assignment"], t["progress"],
              f"seed={c['seed']}"]
    return " ".join(parts)
