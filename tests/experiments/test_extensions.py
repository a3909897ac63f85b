"""Extension exhibits: structure on shrunk axes, shape on the committed ones.

The shape tests read the ``exhibits`` fixture (conftest.py), the
session's regeneration of the committed quick sweeps.
"""

from repro.experiments.extensions import (
    run_entity_modes,
    run_instance_sweep,
    run_message_size_sweep,
)


class TestStructure:
    def test_msgsize_structure(self, monkeypatch):
        import repro.experiments.extensions as ext
        monkeypatch.setattr(ext, "SIZE_AXIS", (0, 1024))
        fig = run_message_size_sweep(quick=True, trials=1, pairs=2)
        assert fig.fig_id == "ext-msgsize"
        assert fig.get("rate").xs == (0, 1024)
        assert fig.extra["eager_limit_bytes"] == 8192

    def test_instances_structure(self, monkeypatch):
        import repro.experiments.extensions as ext
        monkeypatch.setattr(ext, "INSTANCE_AXIS", (1, 4))
        fig = run_instance_sweep(quick=True, trials=1, pairs=4)
        assert fig.labels == ["serial progress", "concurrent progress + matching"]

    def test_latency_structure(self, exhibits):
        fig = exhibits.figures["ext-latency"]
        assert fig.fig_id == "ext-latency"
        assert len(fig.series) == 3
        assert all(p.mean > 0 for s in fig.series for p in s.points)

    def test_modes_structure(self, monkeypatch):
        import repro.experiments.extensions as ext
        monkeypatch.setattr(ext, "MODE_PAIRS_AXIS", (1, 2))
        fig = run_entity_modes(quick=True, trials=1)
        assert set(fig.labels) == {"threads", "processes", "hybrid"}


class TestShapes:
    def test_msgsize_crossover_and_bandwidth_asymptote(self, exhibits):
        fig = exhibits.figures["ext-msgsize"]
        rate = fig.get("rate")
        # Flat-ish while eager, then a clear drop beyond the eager limit...
        assert rate.at(2048).mean > 1.3 * rate.at(16384).mean
        # ...and bandwidth-bound for huge messages (rate ~ 1/size).
        big, bigger = rate.at(65536).mean, rate.at(262144).mean
        assert 2.5 < big / bigger < 6.0

    def test_instances_buy_rate_until_thread_count(self, exhibits):
        fig = exhibits.figures["ext-instances"]
        conc = fig.get("concurrent progress + matching")
        assert conc.at(20).mean > 2.5 * conc.at(1).mean
        # beyond one instance per thread there is nothing left to buy
        assert conc.at(32).mean < 1.5 * conc.at(20).mean

    def test_latency_tails(self, exhibits):
        """Concurrent matching flattens the p99 tail; a serial extractor
        fed by uncontended senders builds the worst queueing delay."""
        fig = exhibits.figures["ext-latency"]
        full = fig.get("CRIs + concurrent matching")
        serial_cris = fig.get("CRIs (serial progress)")
        x = full.points[-1].x
        assert full.at(x).mean < 0.2 * serial_cris.at(x).mean
        assert serial_cris.at(x).mean > 5 * serial_cris.at(1).mean

    def test_modes_ordering(self, exhibits):
        fig = exhibits.figures["ext-modes"]
        x = fig.get("threads").points[-1].x
        processes = fig.get("processes").at(x).mean
        hybrid = fig.get("hybrid").at(x).mean
        threads = fig.get("threads").at(x).mean
        # Full process mode fastest; hybrid (threaded senders only)
        # in between; thread mode slowest.
        assert processes > hybrid > threads
