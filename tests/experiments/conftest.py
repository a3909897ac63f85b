"""The committed exhibits, regenerated once per test session.

:func:`exhibits` runs every registered exhibit through
``run_experiment`` + ``save_result`` -- the path ``repro run`` and the
experiment service write through -- under an engine with one worker
per CPU and the trial cache ``repro run all --out results/`` uses,
``results/.cache``.  Cache keys fold in the simulation-code
fingerprint, so the regeneration replays in well under a second while
the simulator is unchanged and recomputes every trial exactly when it
changed.  ``test_exhibits.py`` pins the written files against
``results/``; the paper-shape and ablation tests read their figures
from the same regeneration.
"""

import os
import pathlib
from typing import NamedTuple

import pytest

from repro.engine import Engine, TrialCache, use_engine
from repro.experiments.artifacts import figures_of, save_result
from repro.experiments.registry import EXPERIMENTS, run_experiment

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


class Regenerated(NamedTuple):
    """Every registered exhibit, rendered the way ``repro run`` renders it."""

    figures: dict       #: fig_id -> FigureResult
    paths: list         #: every file ``save_result`` wrote


@pytest.fixture(scope="session")
def exhibits(tmp_path_factory):
    """Regenerate every registered exhibit once per session."""
    out = tmp_path_factory.mktemp("exhibits")
    engine = Engine(jobs=os.cpu_count() or 1,
                    cache=TrialCache(RESULTS / ".cache"))
    figures, paths = {}, []
    with use_engine(engine):
        for exp_id in EXPERIMENTS:
            result = run_experiment(exp_id)
            figures.update((fig.fig_id, fig) for fig in figures_of(result))
            paths.extend(save_result(result, out))
    return Regenerated(figures, paths)
