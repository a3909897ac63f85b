"""Paper-shape acceptance tests.

Each test asserts the *qualitative* claim a paper exhibit makes -- who
wins, by roughly what factor, where behaviour changes -- on the
committed quick exhibits, read from the session's regeneration (the
``exhibits`` fixture, which ``test_exhibits.py`` pins to ``results/``).
Absolute rates are never asserted (our substrate is a simulator, not
the authors' clusters); EXPERIMENTS.md records the measured numbers
next to the paper's.
"""

import pytest


@pytest.fixture(scope="module")
def fig3(exhibits):
    return {panel: exhibits.figures[f"fig3{panel}"] for panel in "abc"}


@pytest.fixture(scope="module")
def fig4(exhibits):
    return {panel: exhibits.figures[f"fig4{panel}"] for panel in "abc"}


def last_x(series):
    return series.points[-1].x


class TestFigure3a:
    def test_single_instance_collapses_with_threads(self, fig3):
        base = fig3["a"].get("1-ded")
        peak = max(p.mean for p in base.points)
        assert base.points[-1].mean < peak / 2.5

    def test_more_instances_beat_single_at_scale(self, fig3):
        a = fig3["a"]
        x = last_x(a.get("1-ded"))
        assert a.get("20-ded").at(x).mean > 1.8 * a.get("1-ded").at(x).mean
        assert a.get("10-ded").at(x).mean > 1.8 * a.get("1-ded").at(x).mean

    def test_multi_instance_plateaus_rather_than_scales(self, fig3):
        """Serial progress caps extraction: 20 instances cannot give 20x."""
        ded20 = fig3["a"].get("20-ded")
        assert ded20.points[-1].mean < 2.0 * ded20.points[0].mean


class TestFigure3b:
    def test_concurrent_progress_hurts(self, fig3):
        """Fig 3b's whole point: concurrent progress alone is a loss."""
        for label in ("10-ded", "20-ded", "20-rr"):
            x = last_x(fig3["a"].get(label))
            assert fig3["b"].get(label).at(x).mean < \
                0.8 * fig3["a"].get(label).at(x).mean


class TestFigure3c:
    def test_concurrent_matching_scales_with_threads(self, fig3):
        ded20 = fig3["c"].get("20-ded")
        assert ded20.points[-1].mean > 3.5 * ded20.points[0].mean

    def test_big_win_over_serial_design(self, fig3):
        x = last_x(fig3["c"].get("20-ded"))
        assert fig3["c"].get("20-ded").at(x).mean > \
            4 * fig3["a"].get("1-ded").at(x).mean

    def test_single_instance_still_collapses(self, fig3):
        one = fig3["c"].get("1-ded")
        assert one.points[-1].mean < one.points[0].mean

    def test_round_robin_below_dedicated_midrange(self, fig3):
        c = fig3["c"]
        mids = [p.x for p in c.get("20-ded").points][2:-2]
        ratio = sum(c.get("20-ded").at(x).mean / c.get("20-rr").at(x).mean
                    for x in mids) / len(mids)
        assert ratio > 1.1


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self, exhibits):
        return exhibits.figures["table2"]

    def test_out_of_sequence_dominates_shared_comm(self, table):
        for strategy in ("Serial Progress", "Concurrent Progress"):
            pct = table.get(f"{strategy}: out-of-sequence %")
            for instances in (10, 20):
                assert pct.at(instances).mean > 50.0

    def test_concurrent_matching_kills_out_of_sequence(self, table):
        pct = table.get("Concurrent Progress + Matching: out-of-sequence %")
        for instances in (10, 20):
            assert pct.at(instances).mean < 5.0

    def test_match_time_inflates_under_concurrent_progress(self, table):
        """Paper: ~3x more match time under concurrent progress.  Our model
        reproduces this for multi-instance runs (where concurrent progress
        actually admits several matchers and the structures migrate);  at a
        single instance both engines funnel through one try-lock and the
        effect cannot appear -- see EXPERIMENTS.md."""
        serial = table.get("Serial Progress: match time (ms)")
        conc = table.get("Concurrent Progress: match time (ms)")
        for instances in (10, 20):
            assert conc.at(instances).mean > 1.6 * serial.at(instances).mean

    def test_match_time_minimal_with_concurrent_matching(self, table):
        serial = table.get("Serial Progress: match time (ms)")
        both = table.get("Concurrent Progress + Matching: match time (ms)")
        assert both.at(20).mean < 0.75 * serial.at(20).mean


class TestFigure4:
    def test_overtaking_lifts_the_single_instance_extraction_wall(self, fig3, fig4):
        """Without ordering, matching is cheap: multi-instance serial rates
        should be at least as good as the enforced-ordering ones."""
        x = last_x(fig3["a"].get("20-ded"))
        assert fig4["a"].get("20-ded").at(x).mean > \
            0.9 * fig3["a"].get("20-ded").at(x).mean

    def test_concurrent_progress_still_drops(self, fig4):
        for label in ("10-ded", "20-ded"):
            x = last_x(fig4["a"].get(label))
            assert fig4["b"].get(label).at(x).mean < \
                0.9 * fig4["a"].get(label).at(x).mean

    def test_concurrent_matching_unaffected_by_overtaking(self, fig3, fig4):
        """Fig 4c == Fig 3c within tolerance: that path was already optimal."""
        x = last_x(fig3["c"].get("20-ded"))
        a = fig4["c"].get("20-ded").at(x).mean
        b = fig3["c"].get("20-ded").at(x).mean
        assert 0.7 < a / b < 1.4


class TestFigure5:
    @pytest.fixture(scope="class")
    def fig(self, exhibits):
        return exhibits.figures["fig5"]

    def test_process_mode_scales_thread_mode_does_not(self, fig):
        for impl in ("OMPI", "IMPI", "MPICH"):
            proc = fig.get(f"{impl} Process")
            thread = fig.get(f"{impl} Thread")
            x = proc.points[-1].x
            assert proc.at(x).mean > 5 * thread.at(x).mean

    def test_stock_thread_modes_similarly_poor(self, fig):
        x = fig.get("OMPI Thread").points[-1].x
        rates = [fig.get(f"{impl} Thread").at(x).mean
                 for impl in ("OMPI", "IMPI", "MPICH")]
        assert max(rates) < 2.5 * min(rates)

    def test_cris_roughly_double_thread_mode(self, fig):
        x = fig.get("OMPI Thread").points[-1].x
        assert fig.get("OMPI Thread + CRIs").at(x).mean > \
            1.5 * fig.get("OMPI Thread").at(x).mean

    def test_cris_star_big_gain_but_below_process(self, fig):
        x = fig.get("OMPI Thread").points[-1].x
        star = fig.get("OMPI Thread + CRIs*").at(x).mean
        assert star > 4 * fig.get("OMPI Thread").at(x).mean
        assert star < fig.get("OMPI Process").at(x).mean


class TestFigure6:
    @pytest.fixture(scope="class")
    def figs(self, exhibits):
        return exhibits.figures

    def test_dedicated_scales_nearly_perfectly_small_messages(self, figs):
        ded = figs["fig6-1B"].get("dedicated/serial")
        first, last = ded.points[0], ded.points[-1]
        speedup = last.mean / first.mean
        assert speedup > 0.5 * (last.x / first.x)

    def test_single_instance_drops_with_threads(self, figs):
        single = figs["fig6-1B"].get("single/serial")
        assert single.points[-1].mean < 0.5 * single.points[0].mean

    def test_round_robin_significantly_below_dedicated(self, figs):
        fig = figs["fig6-1B"]
        x = fig.get("dedicated/serial").points[-1].x
        assert fig.get("dedicated/serial").at(x).mean > \
            1.4 * fig.get("round-robin/serial").at(x).mean

    def test_concurrent_progress_changes_little(self, figs):
        fig = figs["fig6-1B"]
        for mode in ("dedicated", "round-robin"):
            x = fig.get(f"{mode}/serial").points[-1].x
            a = fig.get(f"{mode}/serial").at(x).mean
            b = fig.get(f"{mode}/concurrent").at(x).mean
            assert 0.8 < a / b < 1.25

    def test_large_messages_hit_peak_line(self, figs):
        fig = figs["fig6-16384B"]
        peak = fig.extra["peak_rate"]
        x = fig.get("dedicated/serial").points[-1].x
        rate = fig.get("dedicated/serial").at(x).mean
        assert 0.7 * peak < rate <= 1.001 * peak


class TestFigure7:
    def test_knl_slower_per_thread_but_still_scales(self, exhibits):
        ded = exhibits.figures["fig7-1B"].get("dedicated/serial")
        hded = exhibits.figures["fig6-1B"].get("dedicated/serial")
        assert ded.at(1).mean < hded.at(1).mean        # slower cores
        assert ded.points[-1].x == 64                  # deeper thread sweep
        assert ded.points[-1].mean > 10 * ded.at(1).mean  # still scales
