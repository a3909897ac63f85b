"""CostModel / ThreadingConfig validation and derivation."""

import dataclasses

import pytest

from repro.core import CostModel, ThreadingConfig


class TestThreadingConfig:
    def test_defaults_valid(self):
        cfg = ThreadingConfig()
        assert cfg.num_instances == 1
        assert cfg.progress == "serial"

    @pytest.mark.parametrize("kwargs", [
        {"num_instances": 0},
        {"assignment": "sticky"},
        {"progress": "parallel"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ThreadingConfig(**kwargs)


class TestCostModel:
    def test_scaled_scales_every_time_field(self):
        base = CostModel()
        doubled = base.scaled(2.0)
        for f in dataclasses.fields(CostModel):
            v = getattr(base, f.name)
            if isinstance(v, int) and f.name not in CostModel._NON_TIME_FIELDS:
                assert getattr(doubled, f.name) == int(v * 2.0), f.name

    def test_scaled_preserves_sizes_and_thresholds(self):
        base = CostModel()
        assert base.scaled(2.0).eager_limit_bytes == base.eager_limit_bytes

    def test_lock_costs_no_convoy(self):
        lc = CostModel().lock_costs(migration_ns=500)
        assert lc.contended_per_waiter_ns == 0
        assert lc.migration_ns == 500

    def test_cri_lock_costs_carry_convoy(self):
        cm = CostModel(lock_contended_per_waiter_ns=444)
        assert cm.cri_lock_costs().contended_per_waiter_ns == 444

    def test_with_overrides(self):
        cm = CostModel().with_overrides(host_gap_ns=1)
        assert cm.host_gap_ns == 1

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().host_gap_ns = 5
