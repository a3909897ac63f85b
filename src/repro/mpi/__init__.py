"""An MPI-like message-passing library on simulated threads and networks.

This is the substrate the paper's designs are implemented *in*: a faithful
(if reduced) model of Open MPI's OB1 point-to-point stack plus the part of
the MPI-3.1 one-sided interface RMA-MT drives:

* communicators with per-(peer, communicator) send sequence numbers;
* a matching engine per (process, communicator) -- posted-receive and
  unexpected-message queues, sequence validation, out-of-sequence
  buffering, ``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG`` wildcards, and the
  ``mpi_assert_allow_overtaking`` info key;
* blocking and nonblocking two-sided operations driven by the progress
  engines from :mod:`repro.core`, plus a linear ``allreduce``;
* one-sided windows with put/get/accumulate completed by ``flush``
  inside a ``win_lock_all`` epoch;
* software performance counters (SPCs) mirroring the Open MPI counters
  the paper reads: messages sent/received, unexpected and out-of-sequence
  counts, total match time.

Entry point: build an :class:`~repro.mpi.world.MpiWorld`, then run
workload generators against per-thread :class:`~repro.mpi.env.MpiThreadEnv`
handles.
"""

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.errors import (
    CommunicatorError,
    EpochError,
    MpiError,
    RankError,
    TagError,
    TruncationError,
)
from repro.mpi.info import Info
from repro.mpi.spc import SPC
from repro.mpi.request import RecvRequest, Request, SendRequest, Status
from repro.mpi.communicator import Communicator
from repro.mpi.world import MpiWorld
from repro.mpi.env import MpiThreadEnv

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "CommunicatorError",
    "EpochError",
    "Info",
    "MpiError",
    "MpiThreadEnv",
    "MpiWorld",
    "RankError",
    "RecvRequest",
    "Request",
    "SPC",
    "SendRequest",
    "Status",
    "TagError",
    "TruncationError",
]
