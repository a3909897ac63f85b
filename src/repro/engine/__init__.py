"""Parallel experiment engine with a content-addressed trial cache.

Every exhibit in ``repro.experiments`` is a sweep of *trials*: pure
functions of ``(x, seed, params)`` that run one seeded simulation and
return a JSON-able value.  Purity is the same independence property the
paper's CRI design exploits for communication -- no trial observes
another -- so the engine can fan trials out over a
:mod:`multiprocessing` worker pool and merge the results by task
identity, producing **byte-identical** artifacts regardless of worker
count or completion order.

Layers (each in its own module):

* :mod:`~repro.engine.task` -- :class:`TrialSpec` / :class:`TrialTask`,
  the picklable description of one trial, plus the canonical encoding
  that content-addresses it;
* :mod:`~repro.engine.registry` -- the by-name registry of trial
  functions (workers import it to resolve tasks);
* :mod:`~repro.engine.fingerprint` -- source fingerprints that fold the
  simulator's code into cache keys, so editing the model invalidates
  stale trials while documentation edits do not;
* :mod:`~repro.engine.cache` -- :class:`TrialCache`, one JSON file per
  trial under ``results/.cache/``, multi-process safe (file-locked,
  fsynced writes, corrupt entries quarantined to ``*.bad``) and the one
  durable record of a finished trial, so every rerun replays what an
  interrupted run finished;
* :mod:`~repro.engine.locks` -- the advisory :class:`FileLock` behind
  every shared-state write;
* :mod:`~repro.engine.pool` -- the serial executor and :class:`TaskOutcome`;
* :mod:`~repro.engine.supervise` -- the supervised pool: per-trial
  timeouts, dead-worker detection, bounded retry with backoff
  (:class:`RetryPolicy`), chaos-testable via
  :class:`repro.faults.workers.WorkerFaultPlan`;
* :mod:`~repro.engine.engine` -- :class:`Engine` orchestrating cache
  + pool (and ``--shard k/N`` partitions) and keeping SPC-style
  counters (hits, misses, retries, utilization);
* :mod:`~repro.engine.manifest` -- run-provenance ``manifest.json``
  documents (seed, params, code fingerprint, aggregated counters)
  written next to every ``--out`` artifact set.

The ambient engine (:func:`current_engine` / :func:`use_engine`)
defaults to serial, uncached execution -- exactly the pre-engine
behaviour -- and the CLI swaps in a parallel, cached one for
``python -m repro run <id> --jobs N``.
"""

from repro.engine.cache import TrialCache
from repro.engine.engine import (
    Engine,
    EngineCounters,
    ShardValue,
    current_engine,
    set_engine,
    use_engine,
)
from repro.engine.locks import FileLock, LockTimeout
from repro.engine.manifest import (
    build_manifest,
    engine_provenance,
    load_manifest,
    write_manifest,
)
from repro.engine.registry import resolve_trial, trial
from repro.engine.supervise import (RetryPolicy, TrialRetryError,
                                    run_supervised, supervision)
from repro.engine.task import TrialSpec, TrialTask, canonical

__all__ = [
    "Engine",
    "EngineCounters",
    "FileLock",
    "LockTimeout",
    "RetryPolicy",
    "ShardValue",
    "TrialCache",
    "TrialRetryError",
    "TrialSpec",
    "TrialTask",
    "build_manifest",
    "canonical",
    "current_engine",
    "engine_provenance",
    "load_manifest",
    "resolve_trial",
    "run_supervised",
    "set_engine",
    "supervision",
    "trial",
    "use_engine",
    "write_manifest",
]
