"""Experiment harness: one runner per paper table/figure.

Each ``run_*`` function regenerates the data behind one exhibit of the
paper's evaluation section and returns a
:class:`~repro.util.records.FigureResult` that renders to ASCII (the rows
the paper plots) and CSV.  ``quick=True`` (the default) uses reduced
message counts and a sparser x-axis so the whole suite finishes in
minutes; ``quick=False`` runs the denser, slower version.

Import each runner from its module (``repro.experiments.figure3``, ...)
and the testbed presets from :mod:`repro.experiments.testbeds`; the
package re-exports nothing, so loading a preset does not load the
engine.  :mod:`repro.experiments.registry` maps exhibit ids to runners.

See DESIGN.md section 4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""
