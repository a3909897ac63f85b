"""Advisory file locks for multi-process trial-cache writes.

Concurrent ``repro run`` invocations (and CI shards) may point
``$REPRO_TRIAL_CACHE`` at one directory; every mutation of shared state
-- a cache store, a quarantine rename -- happens under a
:class:`FileLock` so two processes never interleave partial writes.

On POSIX the lock is ``fcntl.flock`` on a sidecar ``.lock`` file
(released automatically by the kernel if the holder dies, so a killed
run can never wedge the cache).  Where ``fcntl`` is unavailable the
fallback is an exclusive-create pidfile with stale-age breaking: a lock
file older than ``stale_s`` is presumed orphaned by a crash and broken.
Both variants poll with a bounded timeout rather than blocking forever
-- a stuck lock surfaces as :class:`LockTimeout`, not a hang.
"""

from __future__ import annotations

import os
import pathlib
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


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

    def __init__(self, path, timeout_s: float = 30.0,
                 poll_s: float = 0.005, stale_s: float = 60.0):
        self.path = pathlib.Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.stale_s = stale_s
        self._fd: int | None = None

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Take the lock, polling up to ``timeout_s`` seconds."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout_s
        if fcntl is not None:
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
        while True:  # pragma: no cover - exercised only without fcntl
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                self._fd = fd
                return
            except FileExistsError:
                self._break_stale()
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"could not lock {self.path} within "
                        f"{self.timeout_s}s") from None
                time.sleep(self.poll_s)

    def _break_stale(self) -> None:
        """Remove a pidfile lock left behind by a crashed holder."""
        try:
            age = time.time() - self.path.stat().st_mtime
            if age > self.stale_s:
                self.path.unlink()
        except OSError:
            pass  # raced with the holder (or another breaker): retry

    def release(self) -> None:
        """Drop the lock (no-op if not held)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
        else:  # pragma: no cover - exercised only without fcntl
            try:
                self.path.unlink()
            except OSError:
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
