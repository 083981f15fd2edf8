"""Online repair engine: scan → plan → execute, back to K replicas.

After node failures the cluster still *restores* fine as long as one
replica of everything survives — but its failure tolerance has silently
degraded.  This package restores the margin without a full re-dump, moving
only what was actually lost:

* :mod:`repro.repair.scanner` — walk surviving manifests and chunk indexes
  into an under-replication table (live replica count vs. the target K,
  counting erasure-coded stripes as reconstruction sources);
* :mod:`repro.repair.planner` — a load-balanced transfer schedule: reads
  spread over holders, writes onto the least-loaded live nodes, offsets
  deterministic so execution needs no extra coordination round;
* :mod:`repro.repair.executor` — drive the schedule through the one-sided
  window machinery, traced per phase and priced by the
  :mod:`repro.netsim` cost model like any dump.

:func:`repair_cluster` wires the three together for offline use (it spawns
its own SPMD world); inside an existing world — e.g. right after a
collective restart — call the layers directly: every rank scans and plans
independently and all of them derive the one schedule
(``tests/repair/test_repair_edges.py`` holds this).

All three layers are batched: the scan's table and the schedule are
columns (``ChunkDeficit`` / ``RepairTransfer`` are views built on request),
and a repair moves each (source, destination) region with one store read,
one encode, one put and one decode, like the dump's exchange.  The
per-chunk loops they replaced live on as the executable reference in
``tests/repair/reference.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.repair.executor import (
    REPAIR_PHASES,
    RepairReport,
    agent_ranks,
    base_report,
    execute_repair,
)
from repro.repair.planner import (
    ManifestTransfer,
    RepairSchedule,
    RepairTransfer,
    plan_repair,
)
from repro.repair.scanner import (
    ChunkDeficit,
    ManifestDeficit,
    RepairScan,
    scan_cluster,
)

__all__ = [
    "REPAIR_PHASES",
    "ChunkDeficit",
    "ManifestDeficit",
    "ManifestTransfer",
    "RepairReport",
    "RepairScan",
    "RepairSchedule",
    "RepairTransfer",
    "agent_ranks",
    "base_report",
    "execute_repair",
    "plan_repair",
    "repair_cluster",
    "scan_cluster",
]


def repair_cluster(
    cluster,
    target_k: int,
    dump_ids: Optional[Sequence[int]] = None,
    timeout: Optional[float] = None,
    backend: Optional[str] = None,
) -> RepairReport:
    """Scan, plan and collectively execute a repair of ``cluster``.

    Restores every chunk referenced by a surviving manifest of ``dump_ids``
    (default: every dump still visible) to ``min(target_k, live nodes)``
    live replicas, and every manifest to the same count.  Chunks whose last
    replica died but whose erasure-coded stripe still decodes are
    reconstructed and re-replicated.  ``backend`` selects the SPMD execution
    backend for the transfer phase (thread default; under ``"process"`` the
    rank-side writes are delta-merged back into ``cluster``).  Returns the
    merged :class:`~repro.repair.executor.RepairReport`; a second invocation
    on an unchanged cluster finds nothing to do and moves zero bytes.
    """
    from repro.core.runner import run_collective

    scan = scan_cluster(cluster, target_k, dump_ids)
    schedule = plan_repair(cluster, scan)
    if schedule.empty:
        return base_report(scan)
    results, _world = run_collective(
        cluster.n_ranks,
        execute_repair,
        cluster,
        schedule,
        scan,
        cluster=cluster,
        backend=backend,
        timeout=timeout,
    )
    return results[0]
