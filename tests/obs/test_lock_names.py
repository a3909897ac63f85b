"""One name per lock: the live locks, the trace and the analyzer agree.

Each lock is named by its owning rank where it is created
(``p<rank>/cri-<i>``, ``p<rank>/opal-progress``,
``p<rank>/match-c<comm>``), so ``SimLock.name``, the lock's trace track
label and the ``lock`` arg of its wait spans are one string.  These
tests join the three views by that string over representative traced
runs, micro and full size.
"""

import pytest

from repro.obs.analyze import analyze_tracer
from repro.obs.export import closed_spans
from repro.obs.scenarios import representative_run
from repro.obs.tracer import Tracer

RUNS = [(exp, micro) for exp in ("fig3a", "chaos", "fig6", "table2")
        for micro in (True, False)]


@pytest.fixture(scope="module", params=RUNS,
                ids=[f"{exp}-{'micro' if micro else 'full'}"
                     for exp, micro in RUNS])
def tracer(request):
    exp, micro = request.param
    captured = {}

    def instrument(sched, world):
        captured["tracer"] = Tracer(sched)

    representative_run(exp, micro=micro, instrument=instrument)
    tracer = captured["tracer"]
    tracer.detach()
    return tracer


def test_lock_names_are_unique(tracer):
    names = [lock.name for lock in tracer.sched.locks]
    assert len(names) == len(set(names))


def test_analyzer_lock_rows_equal_the_live_locks(tracer):
    live = {lock.name: lock for lock in tracer.sched.locks}
    rows = analyze_tracer(tracer).locks
    assert {row.label for row in rows} \
        == {name for name, lock in live.items() if lock.acquisitions}
    for row in rows:
        lock = live[row.label]
        assert (row.acquisitions, row.contended, row.wait_ns, row.hold_ns) \
            == (lock.acquisitions, lock.contended_acquisitions,
                lock.wait_time_ns, lock.hold_time_ns), row.label


def test_wait_totals_equal_the_live_wait_time(tracer):
    waited = {}
    for _, _, cat, _, dur, args in closed_spans(tracer):
        if cat == "lock-wait":
            waited[args["lock"]] = waited.get(args["lock"], 0) + dur
    assert waited == {lock.name: lock.wait_time_ns
                      for lock in tracer.sched.locks if lock.wait_time_ns}
