"""Observability: virtual-time tracing, exporters and SPC time-series.

The subsystem the paper's methodology implies but end-of-run counters
cannot provide: *when* and *on which lock/CRI* contention happens.

* :class:`~repro.obs.tracer.Tracer` -- records begin/end spans, instant
  events and counter samples in virtual time, one track per simulated
  thread plus one per shared resource (lock, CRI, match queue).  The
  scheduler carries a :data:`~repro.obs.tracer.NULL_TRACER` by default,
  so instrumentation sites are a single ``if tracer.enabled`` branch
  when tracing is off.
* :mod:`~repro.obs.export` -- Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and a plain-text top-N report.
* :class:`~repro.obs.metrics.MetricsRegistry` -- samples the SPCs and
  derived gauges (lock wait time, CRI utilization, queue depths) on a
  virtual-time interval, emitting time-series CSV.
* :mod:`~repro.obs.scenarios` -- representative traced runs behind the
  ``python -m repro trace`` CLI (imported lazily; it pulls in the
  workload layer).
* :mod:`~repro.obs.enginestats` -- the experiment engine's SPC-style
  counters (cache hits/misses, worker utilization) rendered in the same
  CSV/summary conventions.
* :mod:`~repro.obs.profile` -- the **host-time** profiler behind
  ``python -m repro profile``: scheduler counters and lock rows from
  one pass, then ``cProfile`` self time and calls per function and per
  layer (:data:`~repro.obs.profile.PACKAGE_LAYER`) from an
  uninstrumented one.

Traces are deterministic: byte-identical across runs with the same seed.
The package re-exports nothing: every simulation imports the scheduler,
and the scheduler needs :mod:`~repro.obs.tracer` alone.
"""
