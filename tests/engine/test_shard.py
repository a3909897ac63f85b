"""Sharded sweeps: deterministic partition, placeholders, exact merge."""

import pytest

from repro.engine import (
    Engine,
    ShardValue,
    TrialCache,
    TrialSpec,
    TrialTask,
    trial,
)


@trial("shardtest.echo")
def _echo(x, seed, *, scale=1, **_extra):
    """Deterministic toy trial used by the shard tests."""
    return float(x) * scale + seed


def _tasks(xs, seed=5, **params):
    spec = TrialSpec.make("shardtest.echo", **params)
    return [TrialTask(spec, x, seed) for x in xs]


def _shard_engine(tmp_path, shard):
    return Engine(cache=TrialCache(tmp_path / "cache"), shard=shard)


def test_shards_partition_the_planned_trials(tmp_path):
    # isolated roots: sharing a cache would let shard 2 hit shard 1's
    # completions instead of skipping them (which is the merge path)
    owned = {}
    for k in (1, 2):
        engine = _shard_engine(tmp_path / f"shard{k}", (k, 2))
        values = engine.run_tasks(_tasks(range(6)))
        assert engine.counters.shard_skipped == 3
        assert engine.counters.cache_misses == 3
        owned[k] = {i for i, v in enumerate(values)
                    if not isinstance(v, ShardValue)}
    assert owned[1] | owned[2] == set(range(6))
    assert not owned[1] & owned[2]


def test_merge_run_resumes_to_serial_values(tmp_path):
    for k in (1, 2, 3):
        _shard_engine(tmp_path, (k, 3)).run_tasks(_tasks(range(7)))
    # the merge is a plain engine over the shards' cache
    merge = Engine(cache=TrialCache(tmp_path / "cache"))
    values = merge.run_tasks(_tasks(range(7)))
    assert values == Engine().run_tasks(_tasks(range(7)))
    assert merge.counters.cache_hits == 7    # nothing recomputed
    assert merge.counters.cache_misses == 0
    assert not any(isinstance(v, ShardValue) for v in values)


def test_unowned_trials_return_placeholders(tmp_path):
    engine = _shard_engine(tmp_path, (1, 2))
    values = engine.run_tasks(_tasks(range(4)))
    owned = [v for v in values if not isinstance(v, ShardValue)]
    assert len(owned) == 2


def test_single_shard_owns_everything(tmp_path):
    engine = _shard_engine(tmp_path, (1, 1))
    engine.run_tasks(_tasks(range(4)))
    assert engine.counters.shard_skipped == 0


def test_shard_value_folds_as_zero_and_empty_mapping():
    value = ShardValue()
    assert value == 0.0
    assert value + 3 == 3.0
    assert isinstance(value["rate"], ShardValue)
    assert isinstance(value.get("anything"), ShardValue)
    assert value["a"]["b"] == 0.0            # nests arbitrarily deep


def test_shard_validation():
    with pytest.raises(ValueError):
        Engine(shard=(0, 2))
    with pytest.raises(ValueError):
        Engine(shard=(3, 2))
