"""No import statement runs inside the event loop.

An ``import`` inside a function re-runs the import machinery on every
call, even for a module already loaded, so a per-message or per-event
path imports what it needs at module level.  ``builtins.__import__`` is
wrapped only while ``Scheduler.run`` executes, so set-up imports do not
count.
"""

import builtins

from repro.core import ThreadingConfig
from repro.experiments.testbeds import TRINITITE_HASWELL
from repro.simthread import Scheduler
from repro.workloads import MultirateConfig, RmaMtConfig, run_multirate, run_rmamt


def test_a_fault_free_trial_imports_nothing_inside_the_loop(monkeypatch):
    imported = []
    real_import = builtins.__import__
    real_run = Scheduler.run

    def counting_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    def run(self, *args, **kwargs):
        builtins.__import__ = counting_import
        try:
            return real_run(self, *args, **kwargs)
        finally:
            builtins.__import__ = real_import

    monkeypatch.setattr(Scheduler, "run", run)
    two_sided = run_multirate(
        MultirateConfig(pairs=4, window=16, windows=2, msg_bytes=16384),
        threading=ThreadingConfig(num_instances=4, assignment="dedicated",
                                  progress="concurrent"))
    one_sided = run_rmamt(
        RmaMtConfig(threads=4, ops_per_thread=10, msg_bytes=16384),
        threading=ThreadingConfig(num_instances=8, assignment="round_robin",
                                  progress="concurrent"),
        costs=TRINITITE_HASWELL.costs, fabric=TRINITITE_HASWELL.fabric)
    assert two_sided.events_processed and one_sided.events_processed
    assert imported == []
