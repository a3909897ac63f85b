"""Experiment registry: id -> runner, for the CLI-ish entry point.

``run_experiment("fig3a")`` regenerates one exhibit; ``EXPERIMENTS``
lists everything with a description (the per-experiment index lives in
DESIGN.md section 4).  Each runner imports its exhibit module when it
is called, so listing or validating ids loads no exhibit.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple


def _load(path: str):
    """``repro.experiments.<module>.<name>`` for ``path="<module>.<name>"``."""
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(f"repro.experiments.{module}"), name)


def _runner(path: str, *args):
    """A runner that imports its exhibit module only when it is called."""
    return lambda quick=True: _load(path)(*args, quick=quick)


class Experiment(NamedTuple):
    """One runnable exhibit: id, description, and its runner callable."""

    exp_id: str
    description: str
    runner: object  # callable(quick: bool) -> FigureResult | list[FigureResult]


EXPERIMENTS = {
    "table1": Experiment("table1", "Testbed configurations",
                         lambda quick=True: _load("table1.run_table1")()),
    "fig3a": Experiment("fig3a", "0-byte rate, serial progress",
                        _runner("figure3.run_figure3", "a")),
    "fig3b": Experiment("fig3b", "0-byte rate, concurrent progress",
                        _runner("figure3.run_figure3", "b")),
    "fig3c": Experiment("fig3c", "0-byte rate, concurrent progress + matching",
                        _runner("figure3.run_figure3", "c")),
    "table2": Experiment("table2", "SPC counters at 20 pairs",
                         _runner("table2.run_table2")),
    "fig4a": Experiment("fig4a", "overtaking, serial progress",
                        _runner("figure4.run_figure4", "a")),
    "fig4b": Experiment("fig4b", "overtaking, concurrent progress",
                        _runner("figure4.run_figure4", "b")),
    "fig4c": Experiment("fig4c", "overtaking, concurrent progress + matching",
                        _runner("figure4.run_figure4", "c")),
    "fig5": Experiment("fig5", "state-of-the-art process vs thread comparison",
                       _runner("figure5.run_figure5")),
    "fig6": Experiment("fig6", "RMA-MT put/flush on Haswell",
                       _runner("figure6.run_figure6")),
    "fig7": Experiment("fig7", "RMA-MT put/flush on KNL",
                       _runner("figure7.run_figure7")),
    # extension exhibits (beyond the paper's figures)
    "ext-msgsize": Experiment("ext-msgsize",
                              "two-sided rate vs message size (rendezvous crossover)",
                              _runner("extensions.run_message_size_sweep")),
    "ext-instances": Experiment("ext-instances",
                                "rate vs CRI count at 20 thread pairs",
                                _runner("extensions.run_instance_sweep")),
    "ext-modes": Experiment("ext-modes",
                            "Figure 2 binding modes head-to-head",
                            _runner("extensions.run_entity_modes")),
    "ext-latency": Experiment("ext-latency",
                              "p99 delivery latency tails across designs",
                              _runner("extensions.run_latency_tails")),
    "chaos": Experiment("chaos",
                        "message-rate degradation under injected packet loss",
                        _runner("chaos.run_chaos")),
}


def run_experiment(exp_id: str, quick: bool = True):
    """Run one registered experiment; returns its FigureResult(s)."""
    try:
        exp = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}") from None
    return exp.runner(quick=quick)
