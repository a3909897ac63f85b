"""By-name registry of trial functions.

Worker processes receive a :class:`~repro.engine.task.TrialTask` whose
``spec.fn`` is a dotted short name like ``"fig3.rate"``; they resolve it
here.  Registration happens at import time via the :func:`trial`
decorator; :func:`ensure_loaded` imports every module in
:data:`TRIAL_MODULES` by name, and :func:`resolve_trial` calls it on a
miss, so a freshly spawned worker sees every experiment's trial
functions without the caller having to arrange imports.

A trial function has the signature ``fn(x, seed, **params)`` and must be
*pure*: same arguments, same return value, no mutation of shared state.
The return value must be JSON-able (float or a flat dict of floats/ints)
so the cache can persist it.
"""

from __future__ import annotations

from typing import Callable

_TRIALS: dict[str, Callable] = {}

#: the experiment modules that define trials (each applies ``@trial``)
TRIAL_MODULES = ("repro.experiments.chaos", "repro.experiments.extensions",
                 "repro.experiments.figure3", "repro.experiments.figure5",
                 "repro.experiments.figure6", "repro.experiments.table2")


def trial(name: str):
    """Class decorator-style registrar: ``@trial("fig3.rate")``."""
    def register(fn: Callable) -> Callable:
        existing = _TRIALS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"trial {name!r} already registered")
        _TRIALS[name] = fn
        return fn
    return register


def ensure_loaded() -> None:
    """Import the experiment modules so their trials are registered."""
    import importlib

    for module in TRIAL_MODULES:
        importlib.import_module(module)


def resolve_trial(name: str) -> Callable:
    """Look up a registered trial function by name."""
    if name not in _TRIALS:
        ensure_loaded()
    try:
        return _TRIALS[name]
    except KeyError:
        raise KeyError(f"unknown trial {name!r}; known: {sorted(_TRIALS)}") from None
