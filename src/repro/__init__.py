"""repro: a reproduction of "Give MPI Threading a Fair Chance" (CLUSTER'19).

A discrete-event simulation of multithreaded MPI internals -- simulated
threads, network contexts/completion queues, an OB1-style matching engine
with sequence numbers, one-sided RDMA -- plus the paper's contribution
(Communication Resource Instances with round-robin/dedicated assignment
and serial/concurrent progress engines), the Multirate and RMA-MT
workloads, and one experiment runner per paper table/figure.

Quickstart::

    from repro import MultirateConfig, ThreadingConfig, run_multirate

    result = run_multirate(
        MultirateConfig(pairs=8, window=64, windows=2),
        threading=ThreadingConfig(num_instances=8, assignment="dedicated",
                                  progress="concurrent"),
    )
    print(f"{result.message_rate/1e6:.2f}M msg/s, "
          f"{result.spc.out_of_sequence_fraction:.0%} out of sequence")

The names in ``__all__`` are imported on first access (PEP 562), so
``python -m repro`` and ``import repro.cli`` do not load the simulator.

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

#: module -> the public names it provides
_API = {
    "repro.core": ("CRI", "CRIPool", "CostModel", "ThreadingConfig"),
    "repro.faults.plan": ("ContextFailure", "FaultPlan", "RetransmitPolicy",
                          "drop_plan"),
    "repro.mpi": ("ANY_SOURCE", "ANY_TAG", "Communicator", "Info",
                  "MpiThreadEnv", "MpiWorld", "SPC"),
    "repro.netsim": ("ARIES", "Fabric", "FabricParams", "IB_EDR"),
    "repro.simthread": ("Scheduler",),
    "repro.workloads": ("MultirateConfig", "MultirateResult", "RmaMtConfig",
                        "RmaMtResult", "run_multirate", "run_rmamt"),
}
_HOME = {name: module for module, names in _API.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    """Import a public name's module on first access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(_HOME[name]), name)
    globals()[name] = value
    return value
