"""The Engine: cache-aware, optionally parallel, crash-safe trial execution.

``Engine.run_tasks`` is the single funnel every exhibit's trials pass
through.  For each batch it:

1. deduplicates identical tasks (same spec/x/seed never computes twice);
2. records every planned trial in the :class:`~repro.engine.journal.
   SweepJournal` (when one is attached) and resolves what it can from
   the journal's completed records -- the ``--resume`` path;
3. resolves the rest from the :class:`~repro.engine.cache.TrialCache`;
4. fans the remaining misses out over the supervised worker pool (or
   runs them inline when ``jobs == 1``), skipping trials owned by other
   shards when ``shard=(k, n)`` partitions the sweep;
5. persists each freshly computed value to the cache *and* journal the
   moment it arrives (streamed, so a crash loses at most in-flight
   trials);
6. reassembles results in submission order.

Because trials are pure, steps 2-5 cannot change any value -- only where
it came from -- which is what the byte-identical-artifacts guarantee
rests on, and why supervision retries and resumed runs reproduce a
clean serial run exactly.  The engine keeps SPC-style counters
(:class:`EngineCounters`) mirroring the simulator's own software
performance counters: totals, hits/misses, journal/resume and
retry/timeout/respawn tallies, per-worker busy time and the derived
utilization, surfaced through ``repro.obs.enginestats`` and
``manifest.json``.

When the CLI injects a live-telemetry session (``telemetry=``, duck-
typed so this module never imports :mod:`repro.obs.live`), every
resolution decision additionally narrates itself as a structured run
event -- cache hit, journal replay, shard skip, dispatch, completion,
supervision recoveries -- and the supervised pool is handed a monitor
for its own callbacks.  All hooks run in the parent at engine level:
the simulation hot loop, and any run without telemetry, is untouched.

The *ambient* engine (:func:`current_engine`) is what the experiment
runners use when no engine is passed explicitly; it defaults to serial
uncached execution, and :func:`use_engine` swaps it for a scope (the
CLI wraps each ``run`` invocation).  The ambient slot is
**thread-local**: the experiment service runs several jobs on
concurrent threads, each under its own ``use_engine``, and a global
slot would cross-wire their caches, journals and telemetry.  Every
thread starts with the default serial engine until something scopes
one in.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field, fields

from repro.engine.cache import TrialCache
from repro.engine.pool import run_serial
from repro.engine.supervise import RetryPolicy, run_supervised
from repro.engine.task import TrialTask


#: field tag for counters that vary with the host (clock, pids); every
#: untagged field is deterministic -- a pure function of the seeded sweep
HOST = {"host": True}


@dataclass
class EngineCounters:
    """SPC-style tallies of what the engine did.

    This class is the one declaration of the engine's counters: every
    surface (``engine.metrics.csv``, ``manifest.json``, ``status.json``,
    ``metrics.prom``, the ``sweep.finish`` event) derives its keys from
    these fields.  Untagged fields are deterministic -- equal between a
    serial, a ``--jobs N`` and a seeded-chaos run of the same sweep --
    and fields tagged :data:`HOST` are not.
    """

    trials: int = 0            #: tasks submitted (after dedup)
    duplicates: int = 0        #: submitted tasks merged into an identical one
    cache_hits: int = 0        #: trials answered from the cache
    cache_misses: int = 0      #: trials that had to compute
    uncacheable: int = 0       #: computed trials whose params defeat caching
    resumed: int = 0           #: trials answered from the sweep journal
    shard_skipped: int = 0     #: trials owned by other shards (not computed)
    retries: int = 0           #: trial executions re-queued by supervision
    timeouts: int = 0          #: workers killed for exceeding the trial timeout
    worker_deaths: int = 0     #: workers found dead mid-trial or idle
    respawns: int = 0          #: replacement workers started
    corrupt: int = 0           #: corrupt cache entries quarantined to *.bad
    batches: int = 0           #: run_tasks invocations
    wall_ns: int = field(default=0, metadata=HOST)  #: host time in run_tasks
    busy_ns: int = field(default=0, metadata=HOST)  #: summed trial compute
    #: worker pid -> its summed trial compute (busy_ns)
    workers: dict = field(default_factory=dict, metadata=HOST)

    def utilization(self, jobs: int) -> float:
        """Fraction of ``jobs x wall`` capacity spent computing trials."""
        if self.wall_ns <= 0 or jobs <= 0:
            return 0.0
        return min(1.0, self.busy_ns / (self.wall_ns * jobs))

    def deterministic(self) -> dict:
        """The untagged counters (what ``sweep.finish`` carries)."""
        return {name: getattr(self, name) for name in _DETERMINISTIC}

    def host(self) -> dict:
        """The :data:`HOST` counters, pid-free: ``workers`` becomes the
        sorted list of per-worker busy nanoseconds."""
        out = {name: getattr(self, name) for name in _HOST}
        out["workers_busy_ns"] = sorted(out.pop("workers").values())
        return out

    def as_row(self) -> dict:
        """Every counter as a flat dict, ``workers`` as its size."""
        row = {name: getattr(self, name) for name in _NAMES}
        row["workers_used"] = len(row.pop("workers"))
        return row


_NAMES = tuple(f.name for f in fields(EngineCounters))
_HOST = tuple(f.name for f in fields(EngineCounters)
              if f.metadata.get("host"))
_DETERMINISTIC = tuple(name for name in _NAMES if name not in _HOST)


class ShardValue(float):
    """Placeholder value for a trial owned by another shard.

    Behaves as ``0.0`` in arithmetic and as an all-zeros mapping under
    item access, so exhibit runners can fold it into series without
    special-casing.  Artifacts containing shard placeholders are never
    emitted -- the CLI suppresses saving in shard mode; the real values
    come from the merge run (``--resume`` over the union of shards).
    """

    def __new__(cls):
        return super().__new__(cls, 0.0)

    def __getitem__(self, key):
        return ShardValue()

    def get(self, key, default=None):
        """Mapping-style access: every field is another placeholder."""
        return ShardValue()


class Engine:
    """Runs batches of :class:`TrialTask` with caching, supervision and
    crash-safe journaling."""

    def __init__(self, jobs: int = 1, cache: TrialCache | None = None,
                 journal=None, policy: RetryPolicy | None = None,
                 faults=None, shard: tuple[int, int] | None = None,
                 telemetry=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if shard is not None:
            k, n = shard
            if n < 1 or not 1 <= k <= n:
                raise ValueError(f"shard must be (k, n) with 1 <= k <= n, "
                                 f"got {shard}")
        self.jobs = jobs
        self.cache = cache
        self.journal = journal
        self.policy = policy
        self.faults = faults
        self.shard = shard
        #: duck-typed live-telemetry session (the engine never imports
        #: repro.obs.live -- the CLI constructs and injects it); None
        #: keeps every hook a single predictable branch
        self.telemetry = telemetry
        self.counters = EngineCounters()
        #: unique trials planned over this engine's lifetime -- the
        #: deterministic enumeration shards partition
        self._planned = 0
        if telemetry is not None:
            telemetry.attach(self)

    # ------------------------------------------------------------------
    def _owns(self, plan_index: int) -> bool:
        """Whether this shard owns the trial at ``plan_index``."""
        if self.shard is None:
            return True
        k, n = self.shard
        return plan_index % n == k - 1

    def run_tasks(self, tasks) -> list:
        """Execute ``tasks``; returns their values in submission order."""
        tasks = list(tasks)
        started = time.perf_counter_ns()
        corrupt_before = self.cache.corrupt if self.cache is not None else 0
        unique: dict[object, int] = {}
        order: list[TrialTask] = []
        keys: list[object] = []
        for task in tasks:
            try:
                hash(task)
                key: object = task
            except TypeError:
                key = object()  # unhashable params: never deduplicates
            keys.append(key)
            if key not in unique:
                unique[key] = len(order)
                order.append(task)
        self.counters.batches += 1
        self.counters.trials += len(order)
        self.counters.duplicates += len(tasks) - len(order)

        tele = self.telemetry
        if tele is not None:
            tele.trial_planned(len(order))
        values: list = [None] * len(order)
        misses: list[tuple[int, TrialTask, str | None, int]] = []
        for i, task in enumerate(order):
            identity = task.cache_text()
            plan_index = self._planned
            self._planned += 1
            if self.journal is not None and identity is not None:
                self.journal.plan(identity)
                hit, value = self.journal.lookup(identity)
                if hit:
                    self.counters.resumed += 1
                    values[i] = value
                    if tele is not None:
                        tele.trial_resumed(identity, plan_index)
                    continue
            if self.cache is not None:
                hit, value = self.cache.get(task)
                if hit:
                    self.counters.cache_hits += 1
                    values[i] = value
                    if self.journal is not None and identity is not None:
                        self.journal.record(identity, value)
                    if tele is not None:
                        tele.trial_cache_hit(identity, plan_index)
                    continue
            if not self._owns(plan_index):
                self.counters.shard_skipped += 1
                values[i] = ShardValue()
                if tele is not None:
                    tele.trial_shard_skip(identity, plan_index)
                continue
            misses.append((i, task, identity, plan_index))

        if misses:
            miss_tasks = [t for _, t, _, _ in misses]
            monitor = tele.pool_monitor(
                [(identity, plan_index)
                 for _, _, identity, plan_index in misses]) \
                if tele is not None else None

            def on_outcome(pos: int, outcome) -> None:
                i, task, identity, _ = misses[pos]
                values[i] = outcome.value
                self.counters.busy_ns += outcome.busy_ns
                pid_busy = self.counters.workers.get(outcome.worker_pid, 0)
                self.counters.workers[outcome.worker_pid] = \
                    pid_busy + outcome.busy_ns
                if self.cache is not None:
                    if identity is None:
                        self.counters.uncacheable += 1
                    else:
                        self.counters.cache_misses += 1
                        self.cache.put(task, outcome.value)
                else:
                    self.counters.cache_misses += 1
                if self.journal is not None and identity is not None:
                    self.journal.record(identity, outcome.value,
                                        busy_ns=outcome.busy_ns)
                if monitor is not None:
                    monitor.complete(pos, outcome.attempts, outcome.busy_ns)

            if self.jobs > 1 and len(miss_tasks) > 1:
                run_supervised(miss_tasks, self.jobs, self.counters,
                               policy=self.policy, faults=self.faults,
                               on_outcome=on_outcome, monitor=monitor)
            else:
                run_serial(miss_tasks, on_outcome=on_outcome,
                           on_start=None if monitor is None
                           else lambda pos: monitor.dispatch(pos, 1))

        if self.cache is not None:
            quarantined = self.cache.corrupt - corrupt_before
            self.counters.corrupt += quarantined
            if quarantined and tele is not None:
                tele.cache_quarantine(quarantined)
        self.counters.wall_ns += time.perf_counter_ns() - started
        return [values[unique[key]] for key in keys]

    def run_task(self, task: TrialTask):
        """Convenience wrapper: run one task, return its value."""
        return self.run_tasks([task])[0]

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Worker utilization over everything this engine has run."""
        return self.counters.utilization(self.jobs)

    def summary(self) -> str:
        """One-line human summary (the CLI prints this after a run)."""
        c = self.counters
        cached = "off" if self.cache is None else str(self.cache.root)
        text = (f"engine: {c.trials} trials, {c.cache_hits} cache hits, "
                f"{c.cache_misses} computed, jobs={self.jobs}, "
                f"utilization={self.utilization():.0%}, cache={cached}")
        if c.resumed:
            text += f", resumed={c.resumed}"
        if c.shard_skipped:
            k, n = self.shard
            text += f", shard {k}/{n} skipped={c.shard_skipped}"
        if c.retries or c.timeouts or c.respawns:
            text += (f"; supervision: {c.retries} retries, "
                     f"{c.timeouts} timeouts, {c.worker_deaths} deaths, "
                     f"{c.respawns} respawns")
        if c.corrupt:
            text += f"; quarantined {c.corrupt} corrupt cache entries"
        return text


#: per-thread ambient engine slot (each serve job thread gets its own)
_ambient = threading.local()


def current_engine() -> Engine:
    """This thread's ambient engine (serial/uncached until swapped)."""
    engine = getattr(_ambient, "engine", None)
    if engine is None:
        engine = _ambient.engine = Engine()
    return engine


def set_engine(engine: Engine | None) -> Engine | None:
    """Replace this thread's ambient engine; returns the previous one."""
    previous = getattr(_ambient, "engine", None)
    _ambient.engine = engine
    return previous


@contextlib.contextmanager
def use_engine(engine: Engine):
    """Scope ``engine`` as the ambient engine (restores on exit)."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)
