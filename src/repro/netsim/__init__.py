"""Simulated network fabric: contexts, endpoints, completion queues, RDMA.

This package models the hardware resources the paper's Communication
Resource Instances (CRIs) replicate and protect:

* a :class:`~repro.netsim.fabric.Fabric` is the interconnect (parameters:
  injection overhead, per-byte cost, wire latency/jitter, NIC pipeline gap,
  optional hardware context limit -- the Cray Aries constraint);
* each node owns a :class:`~repro.netsim.nic.Nic` with a serialized
  injection pipeline;
* a :class:`~repro.netsim.context.NetworkContext` is one injection queue +
  one :class:`~repro.netsim.cq.CompletionQueue` (the unit a CRI wraps);
* an :class:`~repro.netsim.endpoint.Endpoint` is a src-context ->
  dst-context connection with FIFO delivery; deliveries on *different*
  connections are unordered (seeded wire jitter), exactly the property
  that forces MPI to implement sequence numbers in software;
* :mod:`~repro.netsim.rdma` adds one-sided put/get/atomic that complete
  without any involvement of the target CPU.

Presets for an InfiniBand-EDR-like fabric and a Cray-Aries-like fabric
live in :mod:`~repro.netsim.ib` and :mod:`~repro.netsim.aries`.
"""

from repro.netsim.fabric import Fabric, FabricParams
from repro.netsim.nic import Nic
from repro.netsim.context import NetworkContext
from repro.netsim.endpoint import Endpoint
from repro.netsim.cq import CompletionQueue, RecvArrival, SendCompletion
from repro.netsim.message import Envelope
from repro.netsim.rdma import RmaOp
from repro.netsim.ib import IB_EDR
from repro.netsim.aries import ARIES

__all__ = [
    "ARIES",
    "CompletionQueue",
    "Endpoint",
    "Envelope",
    "Fabric",
    "FabricParams",
    "IB_EDR",
    "NetworkContext",
    "Nic",
    "RecvArrival",
    "RmaOp",
    "SendCompletion",
]
