"""Deterministic probes: the simulator's counters, pinned per family.

The virtual-time simulator makes every metric that matters -- elapsed
virtual time, message counts, SPC aggregates, trace hashes -- a *pure
function of the seed*.  :mod:`.probes` holds one small seeded probe per
family, and ``tests/test_golden_identity.py`` compares each probe's
metrics with its golden file on every tier-1 run, so a drifted metric
is a behaviour change by construction.  Host speed is measured once,
by the repo benchmark (``bench/run.py`` and ``bench/compare.py``).
"""
