"""Tracer primitives, lock instrumentation and Chrome-JSON export."""

import json

import pytest

from repro.obs.export import (closed_spans, span_totals, to_chrome_json,
                              trace_events, top_report)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.simthread import Delay, LockCosts, Scheduler, SimLock


class TestNullTracer:
    def test_scheduler_default(self):
        assert Scheduler().tracer is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_all_hooks_are_noops(self):
        nt = NullTracer()
        assert nt.thread_track(object()) == 0
        assert nt.resource_track("lock", "x") == 0
        nt.begin(1, "a")
        nt.end(1)
        nt.instant(1, "b")
        nt.counter(1, {"x": 1})
        nt.lock_tryfail(None, None)


class TestPrimitives:
    def test_attach_and_detach(self):
        sched = Scheduler()
        trc = Tracer(sched)
        assert sched.tracer is trc and trc.enabled
        trc.detach()
        assert sched.tracer is NULL_TRACER

    def test_detach_does_not_clobber_replacement(self):
        sched = Scheduler()
        first = Tracer(sched)
        second = Tracer(sched)
        first.detach()       # no longer attached: must not displace second
        assert sched.tracer is second

    def test_span_nesting_and_arg_merge(self):
        sched = Scheduler(jitter=0.0)
        trc = Tracer(sched)

        def body():
            tid = trc.thread_track(sched.current)
            trc.begin(tid, "outer", "cat", {"a": 1})
            yield Delay(10)
            trc.begin(tid, "inner")
            yield Delay(5)
            trc.end(tid)
            yield Delay(5)
            trc.end(tid, {"b": 2})

        sched.spawn(body(), name="t0")
        sched.run()
        assert [s[1] for s in trc.spans] == ["inner", "outer"]  # close order
        inner, outer = trc.spans
        assert (inner[3], inner[4]) == (10, 5)    # start, duration
        assert (outer[3], outer[4]) == (0, 20)
        assert outer[5] == {"a": 1, "b": 2}

    def test_duplicate_track_label_raises(self):
        trc = Tracer(Scheduler())
        a = trc.resource_track("cri", "p0/cri-0", key="a")
        assert trc.resource_track("cri", "p0/cri-0", key="a") == a  # cached
        with pytest.raises(ValueError, match="p0/cri-0"):
            trc.resource_track("cri", "p0/cri-0", key="b")
        assert [t.label for t in trc.tracks()] == ["p0/cri-0"]

    def test_open_spans_reported(self):
        sched = Scheduler()
        trc = Tracer(sched)
        trc.begin(1, "never-closed")
        assert list(trc.open_spans()) == [1]


class TestLockInstrumentation:
    def _contended_run(self):
        sched = Scheduler(jitter=0.0)
        trc = Tracer(sched)
        lock = SimLock(sched, LockCosts(acquire_ns=10, contended_ns=20,
                                        release_ns=5, tryfail_ns=5,
                                        migration_ns=100), name="m-lock")

        def holder():
            yield from lock.acquire()
            yield Delay(100)
            yield lock.release()

        def waiter():
            yield Delay(5)
            cmd = lock.try_acquire()
            yield cmd
            ok = cmd is not lock.tryfail_delay
            assert not ok
            yield from lock.acquire()
            yield lock.release()

        sched.spawn(holder(), name="holder")
        sched.spawn(waiter(), name="waiter")
        sched.run()
        return trc, lock

    def test_hold_spans_on_lock_track(self):
        trc, lock = self._contended_run()
        totals = span_totals(trc, cat="hold")
        assert set(totals) == {"held:m-lock"}
        assert totals["held:m-lock"]["count"] == 2
        assert totals["held:m-lock"]["total_ns"] == lock.hold_time_ns

    def test_wait_span_matches_lock_accounting(self):
        trc, lock = self._contended_run()
        waits = [(args["lock"], dur)
                 for _, _, cat, _, dur, args in closed_spans(trc)
                 if cat == "lock-wait"]
        assert {name for name, _ in waits} == {"m-lock"}
        assert sum(dur for _, dur in waits) == lock.wait_time_ns
        assert lock.wait_time_ns > 0

    def test_tryfail_and_migration_instants(self):
        trc, _ = self._contended_run()
        names = [i[1] for i in trc.instants]
        assert "tryfail" in names and "migration" in names

    def test_waiter_counter_sampled(self):
        trc, _ = self._contended_run()
        assert any(series == {"waiters": 1} for _, _, series in trc.counters)


class TestExport:
    def _small_trace(self, seed=7):
        sched = Scheduler(seed=seed)
        trc = Tracer(sched)
        lock = SimLock(sched, name="L")

        def worker(i):
            tid = trc.thread_track(sched.current)
            trc.begin(tid, "work", "app")
            for _ in range(3):
                yield from lock.acquire()
                yield Delay(50)
                yield lock.release()
            trc.end(tid)

        for i in range(4):
            sched.spawn(worker(i), name=f"w{i}")
        sched.run()
        return trc

    def test_json_is_valid_chrome_trace(self):
        trc = self._small_trace()
        doc = json.loads(to_chrome_json(trc))
        events = doc["traceEvents"]
        assert doc["otherData"]["generator"] == "repro.obs"
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C"} <= phases
        for e in events:
            assert {"ph", "name", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0

    def test_metadata_names_every_track(self):
        trc = self._small_trace()
        events = trace_events(trc)
        named = {(e["pid"], e["tid"]) for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        assert used <= named

    def test_byte_identical_across_same_seed_runs(self):
        assert to_chrome_json(self._small_trace(seed=7)) == \
            to_chrome_json(self._small_trace(seed=7))
        assert to_chrome_json(self._small_trace(seed=7)) != \
            to_chrome_json(self._small_trace(seed=8))

    def test_auto_close_flags_open_spans(self):
        sched = Scheduler()
        trc = Tracer(sched)
        tid = trc.resource_track("lock", "stuck")
        trc.begin(tid, "forever")
        events = trace_events(trc)
        (span,) = [e for e in events if e["ph"] == "X"]
        assert span["args"]["auto_closed"] is True

    def test_top_report_mentions_hot_spans(self):
        report = top_report(self._small_trace(), n=5)
        assert "work" in report and "held:L" in report
        assert "lock (contended wait)" in report
