"""Trial cache: hits, misses, invalidation, corruption tolerance."""

import json

import pytest

from repro.engine import TrialCache, TrialSpec, TrialTask, trial
from repro.engine import cache as cache_mod


@trial("cachetest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the cache tests."""
    return float(x) * scale + seed


def _task(x=2, seed=7, **params):
    return TrialTask(TrialSpec.make("cachetest.echo", **params), x, seed)


def test_miss_then_hit_roundtrip(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task(scale=3)
    hit, _ = cache.get(task)
    assert not hit and cache.misses == 1
    cache.put(task, 13.0)
    hit, value = cache.get(task)
    assert hit and value == 13.0
    assert cache.hits == 1 and cache.stores == 1
    assert cache.entry_count() == 1


def test_put_fsyncs_the_entry_before_renaming_it(tmp_path, monkeypatch):
    # a trial counted as computed must survive an OS crash: its bytes
    # reach the disk before the rename makes the entry visible
    calls = []
    fsync, replace = cache_mod.os.fsync, cache_mod.os.replace

    def spy_fsync(fd):
        stat = cache_mod.os.fstat(fd)
        calls.append(("fsync", stat.st_ino, stat.st_size))
        fsync(fd)

    def spy_replace(src, dst):
        calls.append(("replace", cache_mod.os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(cache_mod.os, "fsync", spy_fsync)
    monkeypatch.setattr(cache_mod.os, "replace", spy_replace)
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, 9.0)
    [entry] = tmp_path.glob("*/*.json")
    stat = entry.stat()
    assert calls == [("fsync", stat.st_ino, stat.st_size),
                     ("replace", stat.st_ino)]
    assert cache.get(task) == (True, 9.0)


def test_distinct_tasks_distinct_entries(tmp_path):
    cache = TrialCache(tmp_path)
    for task in (_task(x=1), _task(x=3), _task(seed=8), _task(scale=2)):
        assert cache.key_for(task) != cache.key_for(_task())
        cache.put(task, 0.0)
    assert cache.entry_count() == 4


def test_dict_values_roundtrip(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, {"rate": 1.5, "retransmits": 12})
    assert cache.get(task) == (True, {"rate": 1.5, "retransmits": 12})


def test_uncacheable_task_is_a_silent_no_op(tmp_path):
    class Opaque:
        pass

    cache = TrialCache(tmp_path)
    task = _task(ob=Opaque())
    assert cache.key_for(task) is None
    cache.put(task, 1.0)
    assert cache.get(task) == (False, None)
    assert cache.entry_count() == 0


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, 5.0)
    path = cache._path(cache.key_for(task))
    path.write_text("{not json")
    assert cache.get(task) == (False, None)
    # recompute + rewrite heals it
    cache.put(task, 5.0)
    assert cache.get(task) == (True, 5.0)


def test_corrupt_entry_quarantined_not_left_in_place(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, 5.0)
    path = cache._path(cache.key_for(task))
    path.write_text("{truncated by a crashed wr")
    assert cache.get(task) == (False, None)
    assert cache.corrupt == 1
    assert not path.exists()                      # moved aside, not reread
    bad = path.with_name(path.name + cache_mod.BAD_SUFFIX)
    assert bad.read_text() == "{truncated by a crashed wr"  # evidence kept
    assert cache.quarantined_count() == 1
    # the quarantined file never reads as a live entry again
    assert cache.get(task) == (False, None)
    assert cache.corrupt == 1                     # quarantined exactly once


def test_entry_missing_value_key_is_quarantined(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, 5.0)
    path = cache._path(cache.key_for(task))
    path.write_text(json.dumps({"format": 1, "fn": "cachetest.echo"}))
    assert cache.get(task) == (False, None)
    assert cache.corrupt == 1 and cache.quarantined_count() == 1


def test_clear_removes_quarantined_entries(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, 5.0)
    cache._path(cache.key_for(task)).write_text("junk")
    cache.get(task)
    assert cache.quarantined_count() == 1
    cache.clear()
    assert cache.quarantined_count() == 0


def test_stale_format_reads_as_miss(tmp_path):
    cache = TrialCache(tmp_path)
    task = _task()
    cache.put(task, 5.0)
    path = cache._path(cache.key_for(task))
    payload = json.loads(path.read_text())
    payload["format"] = 0
    path.write_text(json.dumps(payload))
    assert cache.get(task) == (False, None)


def test_code_fingerprint_change_invalidates(tmp_path, monkeypatch):
    cache = TrialCache(tmp_path)
    task = _task()
    key_before = cache.key_for(task)
    cache.put(task, 5.0)
    monkeypatch.setattr(cache_mod, "trial_fingerprint",
                        lambda fn: "deadbeef-after-an-edit")
    key_after = cache.key_for(task)
    assert key_after != key_before
    assert cache.get(task) == (False, None)   # old entry unreachable


def test_clear_removes_entries(tmp_path):
    cache = TrialCache(tmp_path)
    cache.put(_task(x=1), 1.0)
    cache.put(_task(x=2), 2.0)
    assert cache.clear() == 2
    assert cache.entry_count() == 0


def test_entry_count_on_absent_root(tmp_path):
    assert TrialCache(tmp_path / "nope").entry_count() == 0
