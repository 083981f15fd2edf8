"""Aggregate metrics over a simulated (or threaded) dump.

These are the quantities the paper plots:

* ``unique_content_bytes`` — Figure 3(a)'s "total size of unique content":
  what the strategy identifies as content that must exist at least once.
* ``sent_avg`` / ``sent_max`` — Figures 4(b)/5(b): amount of replicated
  data per process.
* ``recv_avg`` / ``recv_max`` — Figures 4(c)/5(c): receive size (the load-
  balancing target of rank shuffling; also the extra local write load).
* ``effective_replication_min/avg`` — the replication factor actually
  achieved per distinct chunk (the paper assumes K; partner collisions can
  make it lower for rare chunks — we measure it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import Strategy
from repro.core.local_dedup import LocalIndex
from repro.sim.driver import SimResult


def load_skew(values: Sequence[float]) -> Tuple[float, int]:
    """``(max/mean, argmax)`` of a per-rank load vector.

    The straggler detector shared by the metric rollups here and the trace
    analyzer (:func:`repro.obs.analyzer.rank_skew`): 1.0 means perfectly
    balanced, 2.0 means the worst rank carried twice the average while its
    peers idled at the next collective.  Returns ``(0.0, -1)`` for empty or
    all-zero vectors.
    """
    if not values:
        return 0.0, -1
    mean = sum(values) / len(values)
    if mean <= 0:
        return 0.0, -1
    worst = max(range(len(values)), key=values.__getitem__)
    return values[worst] / mean, worst


@dataclass
class DumpMetrics:
    """Cluster-wide rollup of one dump."""

    strategy: str
    k: int
    world_size: int
    total_dataset_bytes: int = 0
    unique_content_bytes: int = 0
    stored_logical_bytes: int = 0
    sent_total_bytes: int = 0
    sent_avg: float = 0.0
    sent_max: int = 0
    recv_avg: float = 0.0
    recv_max: int = 0
    hashed_bytes_per_rank_max: int = 0
    discarded_chunks: int = 0
    view_entries: int = 0
    effective_replication_min: int = 0
    effective_replication_avg: float = 0.0
    node_replication_min: int = 0
    per_rank_sent: List[int] = field(default_factory=list)
    per_rank_recv: List[int] = field(default_factory=list)

    @property
    def unique_fraction(self) -> float:
        """Unique content as a fraction of the raw dataset total (Fig 3a)."""
        if not self.total_dataset_bytes:
            return 0.0
        return self.unique_content_bytes / self.total_dataset_bytes


def unique_content_bytes(
    indices: Sequence[LocalIndex], result: SimResult
) -> int:
    """Figure 3(a) semantics per strategy.

    * no-dedup: all data counts (nothing identified as duplicate).
    * local-dedup: sum of per-rank locally unique bytes.
    * coll-dedup: fingerprints in the global view count once globally;
      out-of-view fingerprints are treated as unique by every holder.
    """
    strategy = result.config.strategy
    if strategy is Strategy.NO_DEDUP:
        return sum(idx.total_bytes for idx in indices)
    if strategy is Strategy.LOCAL_DEDUP:
        return sum(idx.unique_bytes for idx in indices)
    view = result.view
    total = 0
    counted = np.zeros(len(view), dtype=bool)
    for idx in indices:
        sizes = np.fromiter(idx.chunk_sizes.values(), np.int64, len(idx.chunk_sizes))
        rows = view.rows(list(idx.chunk_sizes))
        inside = rows >= 0
        # A rank's fingerprints are distinct, so its rows are too.
        first = ~counted[rows[inside]]
        total += int(sizes[~inside].sum()) + int(sizes[inside][first].sum())
        counted[rows[inside]] = True
    return total


def compute_metrics(
    indices: Sequence[LocalIndex],
    result: SimResult,
    rank_to_node: Optional[Sequence[int]] = None,
) -> DumpMetrics:
    """Roll a :class:`SimResult` up into the paper's plotted quantities."""
    reports = result.reports
    world = len(reports)
    metrics = DumpMetrics(
        strategy=result.config.strategy.value,
        k=result.config.effective_k(world),
        world_size=world,
    )
    metrics.total_dataset_bytes = sum(r.dataset_bytes for r in reports)
    metrics.unique_content_bytes = unique_content_bytes(indices, result)
    metrics.stored_logical_bytes = sum(
        r.stored_bytes + r.received_bytes for r in reports
    )
    metrics.per_rank_sent = [r.sent_bytes for r in reports]
    metrics.per_rank_recv = [r.received_bytes for r in reports]
    metrics.sent_total_bytes = sum(metrics.per_rank_sent)
    metrics.sent_avg = metrics.sent_total_bytes / world
    metrics.sent_max = max(metrics.per_rank_sent)
    metrics.recv_avg = sum(metrics.per_rank_recv) / world
    metrics.recv_max = max(metrics.per_rank_recv)
    metrics.hashed_bytes_per_rank_max = max(r.hashed_bytes for r in reports)
    metrics.discarded_chunks = sum(r.discarded_chunks for r in reports)
    metrics.view_entries = reports[0].view_entries if reports else 0

    # Effective replication achieved per distinct fingerprint.
    if result.placements:
        k_eff = metrics.k
        counts = [len(holders) for holders in result.placements.values()]
        metrics.effective_replication_min = min(counts)
        metrics.effective_replication_avg = sum(counts) / len(counts)
        if rank_to_node is not None:
            node_counts = [
                len({rank_to_node[r] for r in holders})
                for holders in result.placements.values()
            ]
            metrics.node_replication_min = min(node_counts)
        else:
            metrics.node_replication_min = metrics.effective_replication_min
    return metrics


@dataclass
class RepairBalance:
    """Load-spread rollup of one collective repair.

    The repair analogue of ``sent_avg``/``recv_max`` above: the planner's
    whole job is keeping these maxima close to the averages, because the
    modelled repair time (:func:`repro.netsim.cost_model.repair_time`) is
    driven by the busiest node.  An imbalance of 1.0 is a perfectly spread
    repair; large values mean one node is the bottleneck.
    """

    chunks_moved: int = 0
    bytes_moved: int = 0
    source_nodes: int = 0
    dest_nodes: int = 0
    read_avg: float = 0.0
    read_max: int = 0
    write_avg: float = 0.0
    write_max: int = 0

    @property
    def read_imbalance(self) -> float:
        """max/avg bytes served per source node (1.0 = perfectly spread)."""
        return self.read_max / self.read_avg if self.read_avg else 0.0

    @property
    def write_imbalance(self) -> float:
        """max/avg bytes landed per destination node (1.0 = spread)."""
        return self.write_max / self.write_avg if self.write_avg else 0.0


def repair_balance(report) -> RepairBalance:
    """Roll a :class:`~repro.repair.executor.RepairReport` up into its
    load-spread summary."""
    balance = RepairBalance(
        chunks_moved=report.chunks_moved,
        bytes_moved=report.bytes_moved,
        source_nodes=len(report.sent_bytes),
        dest_nodes=len(report.recv_bytes),
    )
    if report.sent_bytes:
        balance.read_max = max(report.sent_bytes.values())
        balance.read_avg = sum(report.sent_bytes.values()) / len(report.sent_bytes)
    if report.recv_bytes:
        balance.write_max = max(report.recv_bytes.values())
        balance.write_avg = sum(report.recv_bytes.values()) / len(report.recv_bytes)
    return balance
