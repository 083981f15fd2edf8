"""The collective reduction: ``GHashes <- ALLREDUCE(HMERGE, LHashes)``.

Two entry points compute the same global view:

* :func:`build_global_view` — the SPMD path: runs the recursive-doubling
  allreduce of :mod:`repro.simmpi` with :func:`~repro.core.hmerge.hmerge`
  as the operator.  Because ``hmerge`` is symmetric and deterministic,
  every rank finishes with an identical view.
* :func:`simulate_global_view` — the deterministic single-process path used
  by the global simulator: it replays the *same* merge tree the allreduce
  would execute (pairwise fold of the ranks beyond the largest power of
  two, then adjacent pairwise rounds), so both paths produce bit-identical
  views — an equivalence the integration tests pin down.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.fingerprint import Fingerprint
from repro.core.hmerge import GlobalView, MergeTable, hmerge
from repro.simmpi import collectives
from repro.simmpi.comm import Communicator


def build_global_view(
    comm: Communicator,
    local_fingerprints: Iterable[Fingerprint],
    k: int,
    f: int,
    node_of=None,
) -> Tuple[GlobalView, MergeTable]:
    """Run the collective reduction; returns (view, final merge table).

    ``node_of`` (rank -> node, identical on all ranks) is the cluster's map
    every merge truncates designated ranks against (see
    :func:`~repro.core.hmerge.hmerge`); it is configuration, so it stays
    off the wire.
    """
    # world_rank keeps designated-rank ids global even when ``comm`` is a
    # sub-communicator (dedup domains).
    table = MergeTable.from_local(local_fingerprints, comm.world_rank, k, f)
    with comm.trace.span("hmerge", table_entries=len(table.fps)):
        merged = collectives.allreduce(comm, table, partial(hmerge, node_of=node_of))
    return GlobalView.from_table(merged), merged


def reduction_merge_tree(
    tables: Sequence[MergeTable],
    node_of=None,
) -> Tuple[MergeTable, List[int]]:
    """Merge per-rank tables in the exact tree shape of the allreduce, each
    merge against the rank -> node map ``node_of``.

    Returns the final table plus the per-round table sizes in bytes (one
    entry per communication round of a single lane), which the cost model
    uses to price the reduction phase without running threads.
    """
    n = len(tables)
    if n == 0:
        raise ValueError("need at least one table")
    if n == 1:
        return tables[0], []

    p2 = 1
    while p2 * 2 <= n:
        p2 *= 2
    rem = n - p2

    level_nbytes: List[int] = []
    # Fold phase: rank 2i absorbs rank 2i+1 for i < rem (cf. allreduce).
    lanes: List[MergeTable] = []
    fold_bytes = 0
    for nr in range(p2):
        if nr < rem:
            fold_bytes = max(fold_bytes, tables[2 * nr + 1].nbytes_estimate())
            lanes.append(hmerge(tables[2 * nr], tables[2 * nr + 1], node_of))
        else:
            lanes.append(tables[nr + rem])
    if rem:
        level_nbytes.append(fold_bytes)

    # Recursive doubling: round with mask m pairs lanes differing in bit m;
    # after each round paired lanes are identical, so one representative per
    # pair suffices — i.e. merge adjacent lanes repeatedly.
    while len(lanes) > 1:
        level_nbytes.append(max(t.nbytes_estimate() for t in lanes))
        lanes = [
            hmerge(lanes[i], lanes[i + 1], node_of) for i in range(0, len(lanes), 2)
        ]

    if rem:
        # Folded-out ranks receive the final table back: one more round.
        level_nbytes.append(lanes[0].nbytes_estimate())
    return lanes[0], level_nbytes


def simulate_global_view(
    per_rank_fingerprints: Sequence[Iterable[Fingerprint]],
    k: int,
    f: int,
    node_of=None,
    rank_ids: Optional[Sequence[int]] = None,
) -> Tuple[GlobalView, MergeTable, List[int]]:
    """Single-process equivalent of :func:`build_global_view` for all ranks.

    Returns ``(view, final table, per-round wire sizes)``.  ``rank_ids``
    lets a dedup *domain* be simulated: entry i's designated-rank id
    (default: i itself).
    """
    if rank_ids is None:
        rank_ids = range(len(per_rank_fingerprints))
    tables = [
        MergeTable.from_local(fps, rank, k, f)
        for rank, fps in zip(rank_ids, per_rank_fingerprints)
    ]
    merged, level_nbytes = reduction_merge_tree(tables, node_of)
    return GlobalView.from_table(merged), merged, level_nbytes
