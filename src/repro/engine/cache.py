"""Content-addressed trial cache: one JSON file per computed trial.

The cache key is ``sha256(trial-identity | code-fingerprint)`` where the
trial identity is the canonical encoding from
:meth:`~repro.engine.task.TrialTask.cache_text` and the fingerprint
comes from :mod:`~repro.engine.fingerprint`.  Values land under
``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps directories
small); each file carries the key components alongside the value so a
cache entry is self-describing and individually inspectable.

The cache is **multi-process safe**: writes go through a same-directory
temp file + ``os.replace`` under a root-level
:class:`~repro.engine.locks.FileLock`, so concurrent ``repro run``
invocations and CI shards can point ``$REPRO_TRIAL_CACHE`` at one
directory without torn entries.  Corrupt or truncated entries (a
crashed writer on a filesystem without atomic replace, a bad disk) are
**quarantined** -- renamed to ``<key>.json.bad`` and counted in
``corrupt`` -- rather than treated as permanent misses, so one bad file
is recomputed exactly once instead of silently re-simulated forever,
and the evidence survives for inspection.  Entries from an older
on-disk format are plain misses: recomputed and overwritten in place.

The cache is also the **one durable record of a finished trial**: the
temp file is flushed and ``os.fsync``-ed before the rename, so a trial
the engine counted as computed survives a ``kill -9`` or an OS crash,
and rerunning the same command replays it instead of recomputing it.
That is how an interrupted sweep resumes and how ``--shard k/N`` runs
merge: the rerun simply hits.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.engine.fingerprint import trial_fingerprint
from repro.engine.locks import FileLock
from repro.engine.task import TrialTask

#: bump when the on-disk payload layout changes
_FORMAT = 1

#: suffix appended to quarantined (corrupt) entries
BAD_SUFFIX = ".bad"


class TrialCache:
    """Persistent map from trial identity to its computed value."""

    def __init__(self, root: pathlib.Path | str):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0  #: entries quarantined to ``*.json.bad``

    def _lock(self) -> FileLock:
        """The root-level write lock shared by every process."""
        return FileLock(self.root / ".lock")

    # ------------------------------------------------------------------
    def key_for(self, task: TrialTask) -> str | None:
        """The content address of ``task``, or None if it is uncacheable."""
        identity = task.cache_text()
        if identity is None:
            return None
        fingerprint = trial_fingerprint(task.spec.fn)
        return hashlib.sha256(f"{identity}|code={fingerprint}".encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, task: TrialTask):
        """Return ``(hit, value)``; a miss or uncacheable task is ``(False, None)``."""
        key = self.key_for(task)
        if key is None:
            return False, None
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            return False, None
        except ValueError:
            # unparseable bytes: quarantine, recompute once
            self._quarantine(path)
            self.misses += 1
            return False, None
        if not isinstance(payload, dict) or "value" not in payload:
            self._quarantine(path)
            self.misses += 1
            return False, None
        if payload.get("format") != _FORMAT:
            self.misses += 1  # older layout: plain miss, overwritten by put
            return False, None
        self.hits += 1
        return True, payload["value"]

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside as ``*.bad`` (keeps the evidence)."""
        try:
            with self._lock():
                os.replace(path, path.with_name(path.name + BAD_SUFFIX))
            self.corrupt += 1
        except OSError:
            pass  # a concurrent process already quarantined or rewrote it

    def put(self, task: TrialTask, value) -> None:
        """Durably persist ``value`` for ``task`` (no-op when uncacheable).

        The entry is fsynced before it is renamed into place, so once
        this returns the trial survives a crash of the process or host.
        """
        key = self.key_for(task)
        if key is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _FORMAT,
            "fn": task.spec.fn,
            "identity": task.cache_text(),
            "x": task.x,
            "seed": task.seed,
            "value": value,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with self._lock():
            with open(tmp, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        self.stores += 1

    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of cached trials currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def quarantined_count(self) -> int:
        """Number of quarantined (``*.json.bad``) entries on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob(f"*/*.json{BAD_SUFFIX}"))

    def clear(self) -> int:
        """Delete every cache entry (quarantined ones included).

        Returns how many live entries were removed.
        """
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.root.glob(f"*/*.json{BAD_SUFFIX}"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed
