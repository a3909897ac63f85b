"""One-sided (RMA) communication: windows, operations, synchronization.

MPI-3.1 one-sided support over the simulated RDMA engine: put (remote
write), get (remote read) and accumulate (remote atomic), completed by
flush inside a passive-target lock_all epoch (the paper's focus).  No
matching exists on this path; completion is purely between the initiator
and its completion queue, which is why dedicated CRIs let RMA scale with
threads (paper section IV-F).
"""

from repro.mpi.rma.window import Window, WindowOp
from repro.mpi.rma import ops

__all__ = ["Window", "WindowOp", "ops"]
