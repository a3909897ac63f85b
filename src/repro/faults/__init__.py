"""Fault injection and recovery for the simulated fabric (DESIGN.md S31).

The package splits into the *description* (:mod:`repro.faults.plan`: a
seeded, immutable :class:`~repro.faults.plan.FaultPlan` DSL) and the
*wiring* (:mod:`repro.faults.install`); the mechanics live next to the
hardware they model, in :mod:`repro.netsim.transport`.

:mod:`repro.faults.workers` applies the same seeded-plan discipline one
level up: :class:`~repro.faults.workers.WorkerFaultPlan` kills or hangs
the *engine's own pool workers*, chaos-testing the supervised executor
in :mod:`repro.engine.supervise`.
"""
