"""Advisory file locks for multi-process trial-cache writes.

Concurrent ``repro run`` invocations (and CI shards) may point
``$REPRO_TRIAL_CACHE`` at one directory; every mutation of shared state
-- a cache store, a quarantine rename -- happens under a
:class:`FileLock` so two processes never interleave partial writes.

The lock is POSIX ``fcntl.flock`` on a sidecar ``.lock`` file, released
automatically by the kernel if the holder dies, so a killed run can
never wedge the cache.  Acquisition polls with a bounded timeout rather
than blocking forever -- a stuck lock surfaces as :class:`LockTimeout`,
not a hang.
"""

from __future__ import annotations

import fcntl
import os
import pathlib
import time


class LockTimeout(TimeoutError):
    """Raised when a lock cannot be acquired within the timeout."""


class FileLock:
    """An advisory inter-process lock tied to one path.

    Usage::

        with FileLock(root / ".lock"):
            ...mutate shared files...

    Re-entrant use within one process is not supported; hold times are
    expected to be single small writes.
    """

    def __init__(self, path, timeout_s: float = 30.0, poll_s: float = 0.005):
        self.path = pathlib.Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._fd: int | None = None

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Take the lock, polling up to ``timeout_s`` seconds."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout_s
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise LockTimeout(
                        f"could not lock {self.path} within "
                        f"{self.timeout_s}s") from None
                time.sleep(self.poll_s)

    def release(self) -> None:
        """Drop the lock (no-op if not held)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover
            pass
        os.close(fd)

    # ------------------------------------------------------------------
    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._fd is not None
