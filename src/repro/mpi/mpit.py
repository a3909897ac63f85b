"""MPI_T-style introspection: control and performance variables.

The paper reads its measurements through Open MPI's Software-based
Performance Counters, which are exported to tools via the MPI_T
performance-variable (pvar) interface; configuration knobs travel the
control-variable (cvar) route (the paper explicitly suggests ``MPI_T
cvars`` for sizing the CRI pool).  This module reproduces that tool
surface:

* :func:`list_cvars` / :func:`read_cvar` -- every knob of the run's
  :class:`~repro.core.config.ThreadingConfig` and
  :class:`~repro.core.config.CostModel`, read-only;
* :class:`PvarSession` -- enumerate, read, snapshot, diff and reset the
  SPC counters, per rank or aggregated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.mpi.spc import DERIVED, OBS_GAUGES, SPC


@dataclass(frozen=True)
class VarInfo:
    """Metadata for one exposed variable."""

    name: str
    description: str
    kind: str          #: "cvar" or "pvar"
    readonly: bool = True


#: every pvar: the SPC fields in declaration order, then the derived
#: counters and the lock/progress gauges (read through
#: :meth:`~repro.mpi.process.MpiProcess.obs_counters`), each sorted
_PVAR_NAMES = (tuple(f.name for f in dataclasses.fields(SPC))
               + tuple(sorted(DERIVED)) + tuple(sorted(OBS_GAUGES)))


# ----------------------------------------------------------------------
# control variables
# ----------------------------------------------------------------------
def list_cvars(world) -> list[VarInfo]:
    """Enumerate the run's control variables (config + cost model)."""
    out = []
    for f in dataclasses.fields(world.config):
        out.append(VarInfo(f"threading.{f.name}",
                           f"ThreadingConfig.{f.name}", "cvar"))
    for f in dataclasses.fields(world.costs):
        out.append(VarInfo(f"costs.{f.name}", f"CostModel.{f.name}", "cvar"))
    return out


def read_cvar(world, name: str):
    """Read one control variable by its dotted name."""
    try:
        group, field = name.split(".", 1)
    except ValueError:
        raise KeyError(f"cvar names are '<group>.<field>', got {name!r}") from None
    source = {"threading": world.config, "costs": world.costs}.get(group)
    if source is None or not any(f.name == field
                                 for f in dataclasses.fields(source)):
        raise KeyError(f"unknown cvar {name!r}")
    return getattr(source, field)


# ----------------------------------------------------------------------
# performance variables
# ----------------------------------------------------------------------
class PvarSession:
    """A tool session over one world's software performance counters."""

    def __init__(self, world):
        self.world = world

    def list_pvars(self) -> list[VarInfo]:
        """Describe every exported performance variable (MPI_T pvar)."""
        out = []
        for f in dataclasses.fields(SPC):
            doc = (f.metadata.get("doc") if f.metadata else None) or f.name.replace("_", " ")
            out.append(VarInfo(f.name, doc, "pvar"))
        for docs in (DERIVED, OBS_GAUGES):
            for name, doc in sorted(docs.items()):
                out.append(VarInfo(name, doc, "pvar"))
        return out

    def _spc(self, rank: int | None) -> SPC:
        if rank is None:
            return self.world.spc_total()
        return self.world.processes[rank].spc

    def _obs(self, rank: int | None) -> dict:
        if rank is None:
            return self.world.obs_total()
        return self.world.processes[rank].obs_counters()

    def read(self, name: str, rank: int | None = None):
        """Read one pvar; ``rank=None`` aggregates over all processes."""
        if name in OBS_GAUGES:
            return self._obs(rank)[name]
        if name not in _PVAR_NAMES:
            raise KeyError(f"unknown pvar {name!r}")
        return getattr(self._spc(rank), name)

    def snapshot(self, rank: int | None = None) -> dict:
        """All pvars at once (a consistent read in virtual time)."""
        spc = self._spc(rank)
        out = {name: getattr(spc, name)
               for name in _PVAR_NAMES if name not in OBS_GAUGES}
        out.update(self._obs(rank))
        return out

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """Per-counter deltas between two snapshots (numeric fields)."""
        out = {}
        for key, new in after.items():
            old = before.get(key, 0)
            if isinstance(new, (int, float)):
                out[key] = new - old
        return out

    def reset(self, rank: int | None = None) -> None:
        """Zero the counters (per rank, or everywhere).

        Covers the SPCs *and* the observability-backed pvars: lock
        statistics and progress-engine call counts are zeroed in place,
        so diffs taken after a reset start from a clean epoch.
        """
        targets = (self.world.processes if rank is None
                   else [self.world.processes[rank]])
        for proc in targets:
            proc.spc.reset()
            for lock in proc.obs_locks():
                lock.reset_stats()
            proc.progress_engine.calls = 0
            proc.progress_engine.denied = 0
