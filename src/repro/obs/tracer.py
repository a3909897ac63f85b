"""Virtual-time tracer: spans, instants and counters over sim tracks.

The tracer mirrors the structure of a Chrome trace: *tracks* (a
``(pid, tid)`` pair in the export) hold *spans* (begin/end pairs with a
duration), *instants* (zero-duration markers) and *counters* (sampled
values).  Tracks come in two flavours:

* one per simulated thread (``thread_track``), named after the thread --
  this is where application-visible work lands (send spans, match spans,
  lock-wait spans);
* one per shared resource (``resource_track``): each :class:`SimLock`
  gets a track showing who holds it and for how long, each matching
  engine a track carrying its queue-depth counters.

Every label is unique, and a duplicate raises: resources are named by
their owning rank where they are created (``p0/cri-1``), and a lock's
wait spans carry its track label in their ``lock`` arg.

All timestamps are virtual nanoseconds read from the scheduler, so a
trace is a pure function of the seed: two runs with the same seed
produce byte-identical exports (the repo's core invariant).

When tracing is off the scheduler carries :data:`NULL_TRACER`, whose
``enabled`` is ``False``; instrumentation sites guard their argument
construction behind that flag, so the disabled cost is one attribute
load and one branch per site.
"""

from __future__ import annotations


class NullTracer:
    """Disabled tracer: every hook is a no-op; ``enabled`` is False.

    Instrumentation sites should test ``tracer.enabled`` before building
    event arguments; the methods exist anyway so un-guarded calls stay
    harmless.
    """

    __slots__ = ()

    enabled = False

    def thread_track(self, thread) -> int:
        """No-op; returns a dummy track id."""
        return 0

    def resource_track(self, kind: str, name: str, key=None) -> int:
        """No-op; returns a dummy track id."""
        return 0

    def begin(self, tid, name, cat="", args=None) -> None:
        """No-op span open."""

    def end(self, tid, args=None) -> None:
        """No-op span close."""

    def instant(self, tid, name, cat="", args=None) -> None:
        """No-op instant event."""

    def counter(self, tid, series: dict) -> None:
        """No-op counter sample."""

    # domain helpers used by the lock instrumentation
    def lock_acquired(self, lock, thread, contended: bool) -> None:
        """No-op lock-acquire hook."""

    def lock_released(self, lock, thread) -> None:
        """No-op lock-release hook."""

    def lock_wait_begin(self, lock, thread, depth: int) -> None:
        """No-op lock-wait-start hook."""

    def lock_wait_end(self, lock, thread) -> None:
        """No-op lock-wait-end hook."""

    def lock_tryfail(self, lock, thread) -> None:
        """No-op failed-trylock hook."""

    def lock_migration(self, lock, thread) -> None:
        """No-op lock-migration hook."""


#: Shared disabled tracer; the scheduler's default.
NULL_TRACER = NullTracer()

#: Export process ids per track kind (grouping in the Perfetto UI).
TRACK_PIDS = {"thread": 1, "lock": 2, "cri": 3, "queue": 4, "fault": 5}
DEFAULT_PID = 9


class _Track:
    """One row in the trace: stable tid, kind, unique label."""

    __slots__ = ("tid", "kind", "label")

    def __init__(self, tid: int, kind: str, label: str):
        self.tid = tid
        self.kind = kind
        self.label = label

    @property
    def pid(self) -> int:
        return TRACK_PIDS.get(self.kind, DEFAULT_PID)


class Tracer:
    """Recording tracer attached to one scheduler.

    Constructing a tracer attaches it (``sched.tracer = self``); call
    :meth:`detach` to restore the null tracer.  Events accumulate in
    memory and are turned into artifacts by :mod:`repro.obs.export`.
    """

    enabled = True

    def __init__(self, sched):
        self.sched = sched
        sched.tracer = self
        self._tracks: dict = {}          # key -> _Track, first-use order
        self._labels: set[str] = set()   # every label in use
        self._open: dict[int, list] = {}   # tid -> stack of open spans
        #: completed spans as (tid, name, cat, start_ns, dur_ns, args)
        self.spans: list = []
        #: instant events as (tid, name, cat, ts_ns, args)
        self.instants: list = []
        #: counter samples as (tid, ts_ns, {series: value})
        self.counters: list = []

    def detach(self) -> None:
        """Restore the scheduler's null tracer (stops recording)."""
        if self.sched.tracer is self:
            self.sched.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # tracks
    # ------------------------------------------------------------------
    def _new_track(self, key, kind: str, label: str) -> _Track:
        if label in self._labels:
            raise ValueError(f"duplicate trace track label {label!r}")
        self._labels.add(label)
        track = _Track(len(self._tracks) + 1, kind, label)
        self._tracks[key] = track
        return track

    def thread_track(self, thread) -> int:
        """The track id for one simulated thread (created on first use)."""
        key = id(thread)
        track = self._tracks.get(key)
        if track is None:
            track = self._new_track(key, "thread", thread.name)
        return track.tid

    def resource_track(self, kind: str, name: str, key=None) -> int:
        """The track id for a shared resource (lock, CRI, queue).

        ``key`` defaults to ``(kind, name)``; pass ``id(obj)`` to intern
        the track by object identity.  Labels are unique: a second
        resource with the same name raises ``ValueError``.
        """
        key = key if key is not None else (kind, name)
        track = self._tracks.get(key)
        if track is None:
            track = self._new_track(key, kind, name)
        return track.tid

    def tracks(self) -> list:
        """All tracks in creation order (export helper)."""
        return list(self._tracks.values())

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def begin(self, tid: int, name: str, cat: str = "", args=None) -> None:
        """Open a span on ``tid`` at the current virtual time."""
        self._open.setdefault(tid, []).append((name, cat, self.sched.now, args))

    def end(self, tid: int, args=None) -> None:
        """Close the innermost open span on ``tid``; merge extra args."""
        name, cat, start, opened = self._open[tid].pop()
        if args:
            opened = {**opened, **args} if opened else dict(args)
        self.spans.append((tid, name, cat, start, self.sched.now - start, opened))

    def instant(self, tid: int, name: str, cat: str = "", args=None) -> None:
        """Record a zero-duration marker."""
        self.instants.append((tid, name, cat, self.sched.now, args))

    def counter(self, tid: int, series: dict) -> None:
        """Sample one or more counter series on a track."""
        self.counters.append((tid, self.sched.now, series))

    def open_spans(self) -> dict[int, list]:
        """Still-open spans per tid (the exporter auto-closes them)."""
        return {tid: list(stack) for tid, stack in self._open.items() if stack}

    # ------------------------------------------------------------------
    # lock-domain helpers (called from SimLock under ``enabled`` guards)
    # ------------------------------------------------------------------
    def lock_kind(self, lock) -> str:
        """Track kind for a lock ("cri" for CRI locks, else "lock")."""
        return "cri" if "/cri-" in lock.name else "lock"

    def lock_track(self, lock) -> int:
        """Resource track id for a lock (interned by identity)."""
        return self.resource_track(self.lock_kind(lock), lock.name, key=id(lock))

    def lock_acquired(self, lock, thread, contended: bool) -> None:
        """Ownership granted: open the holder span on the lock's track."""
        self.begin(self.lock_track(lock), thread.name, "hold",
                   {"contended": contended})

    def lock_released(self, lock, thread) -> None:
        """Close the holder span on the lock's track."""
        self.end(self.lock_track(lock))

    def lock_wait_begin(self, lock, thread, depth: int) -> None:
        """A thread enqueued on a held lock: open its wait span and
        sample the waiter-queue depth on the lock's track."""
        self.begin(self.thread_track(thread), f"wait {lock.name}", "lock-wait",
                   {"lock": lock.name})
        self.counter(self.lock_track(lock), {"waiters": depth})

    def lock_wait_end(self, lock, thread) -> None:
        """Close the waiter's span and resample the queue depth."""
        self.end(self.thread_track(thread))
        self.counter(self.lock_track(lock), {"waiters": len(lock._waiters)})

    def lock_tryfail(self, lock, thread) -> None:
        """Mark a failed trylock attempt on the lock's track."""
        self.instant(self.lock_track(lock), "tryfail", "lock",
                     {"thread": thread.name if thread is not None else "?"})

    def lock_migration(self, lock, thread) -> None:
        """The working set migrated to a new holder's core."""
        self.instant(self.lock_track(lock), "migration", "lock",
                     {"to": thread.name if thread is not None else "?"})
