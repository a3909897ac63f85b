"""FileLock: mutual exclusion, timeout, release-on-death."""

import multiprocessing
import os

import pytest

from repro.engine import FileLock, LockTimeout


def test_acquire_release_roundtrip(tmp_path):
    lock = FileLock(tmp_path / ".lock")
    assert not lock.held
    lock.acquire()
    assert lock.held
    lock.release()
    assert not lock.held


def test_context_manager(tmp_path):
    lock = FileLock(tmp_path / ".lock")
    with lock as held:
        assert held is lock and lock.held
    assert not lock.held


def test_creates_parent_directories(tmp_path):
    with FileLock(tmp_path / "deep" / "nested" / ".lock"):
        pass
    assert (tmp_path / "deep" / "nested" / ".lock").exists()


def test_reacquire_while_held_rejected(tmp_path):
    lock = FileLock(tmp_path / ".lock")
    with lock:
        with pytest.raises(RuntimeError):
            lock.acquire()


def test_release_without_acquire_is_noop(tmp_path):
    FileLock(tmp_path / ".lock").release()


def test_contention_times_out(tmp_path):
    path = tmp_path / ".lock"
    with FileLock(path):
        waiter = FileLock(path, timeout_s=0.1, poll_s=0.01)
        with pytest.raises(LockTimeout):
            waiter.acquire()
        assert not waiter.held


def test_sequential_holders_share_one_path(tmp_path):
    path = tmp_path / ".lock"
    with FileLock(path):
        pass
    with FileLock(path, timeout_s=1):  # immediately available again
        pass


def _hold_and_die(path):
    FileLock(path).acquire()
    os._exit(0)  # die without releasing


def test_lock_released_when_holder_dies(tmp_path):
    path = tmp_path / ".lock"
    proc = multiprocessing.Process(target=_hold_and_die, args=(path,))
    proc.start()
    proc.join(timeout=10)
    assert proc.exitcode == 0
    # the kernel must hand the lock to us promptly
    with FileLock(path, timeout_s=5):
        pass
