"""MPI-like SPMD substrate used as the communication layer of the library.

The paper's algorithms are expressed against MPI (allreduce with a custom
merge operator, allgather, one-sided windows).  This package provides an
in-process implementation of that API surface so the algorithms run
unmodified without an MPI installation:

* :class:`~repro.simmpi.world.World` — spawns ``N`` rank threads running an
  SPMD function and hands each a :class:`~repro.simmpi.comm.Communicator`.
* :class:`~repro.simmpi.procworld.ProcessWorld` — the **process** backend:
  one forked OS process per rank with one-sided windows in
  ``multiprocessing.shared_memory``, so compute-heavy phases run genuinely
  in parallel across cores.  Select backends uniformly via
  ``run_spmd(..., backend="process")`` or the ``REPRO_SPMD_BACKEND``
  environment variable (see :mod:`repro.simmpi.backend`).
* :mod:`~repro.simmpi.collectives` — tree-structured collective algorithms
  (binomial broadcast, recursive-doubling allreduce with arbitrary reduction
  operators, ring allgather, pairwise alltoall) built on point-to-point
  send/recv, so the number of communication rounds matches what a real MPI
  implementation would perform (this is what the paper's "logarithmic in the
  number of processes" overhead argument relies on).
* :class:`~repro.simmpi.window.Window` — MPI-3 style one-sided windows with
  ``put`` + ``fence``, used by the single-sided communication planning phase.
* :class:`~repro.simmpi.trace.Trace` — per-rank byte/round accounting that
  feeds the :mod:`repro.netsim` performance model.
"""

from repro.simmpi.backend import (
    BACKENDS,
    BaseWorld,
    DEFAULT_TIMEOUT,
    create_world,
    normalize_backend,
    resolve_timeout,
)
from repro.simmpi.errors import (
    DeadlockError,
    PeerFailedError,
    RankCrashError,
    SimMPIError,
    WorldError,
)
from repro.simmpi.trace import Trace, nbytes_of
from repro.simmpi.comm import Communicator, Request
from repro.simmpi.window import Window
from repro.simmpi.world import World, run_spmd
from repro.simmpi.procworld import ProcessWorld
from repro.simmpi import collectives

__all__ = [
    "BACKENDS",
    "BaseWorld",
    "Communicator",
    "DEFAULT_TIMEOUT",
    "DeadlockError",
    "PeerFailedError",
    "ProcessWorld",
    "RankCrashError",
    "Request",
    "SimMPIError",
    "Trace",
    "Window",
    "World",
    "WorldError",
    "collectives",
    "create_world",
    "nbytes_of",
    "normalize_backend",
    "resolve_timeout",
    "run_spmd",
]
