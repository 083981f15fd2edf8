"""Single-process simulation of one collective dump across all ranks.

The threaded path in :mod:`repro.core.dump` moves real bytes through real
windows; this driver replays its reduction and *calls* the same
:func:`~repro.core.planner.build_plan` and :func:`~repro.core.offsets.place`
on per-rank :class:`~repro.core.local_dedup.LocalIndex` objects alone.  What
it adds has no production analogue: the placement map and the report
arithmetic.  Fingerprint lists are cheap (tens of bytes per 4 KB of
simulated data), so the paper's full 408-rank configurations fit
comfortably in one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import DumpConfig, Strategy
from repro.core.dump import DumpReport
from repro.core.fingerprint import Fingerprint
from repro.core.global_dedup import simulate_global_view
from repro.core.hmerge import GlobalView
from repro.core.local_dedup import LocalIndex
from repro.core.offsets import Placement, place
from repro.core.planner import ReplicationPlan, build_plan


@dataclass
class SimResult:
    """Everything the benchmarks need about one simulated dump."""

    config: DumpConfig
    reports: List[DumpReport] = field(default_factory=list)
    plans: List[ReplicationPlan] = field(default_factory=list)
    placements: Dict[Fingerprint, Set[int]] = field(default_factory=dict)
    placement: Optional[Placement] = None
    view: Optional[GlobalView] = None
    reduction_level_nbytes: List[int] = field(default_factory=list)

    @property
    def world_size(self) -> int:
        return len(self.reports)

    def report(self, rank: int) -> DumpReport:
        return self.reports[rank]


def simulate_dump(
    indices: Sequence[LocalIndex],
    config: DumpConfig,
    rank_to_node: Optional[Sequence[int]] = None,
) -> SimResult:
    """Simulate ``DUMP_OUTPUT`` for all ranks given their local indices.

    ``indices[r]`` must be rank r's :class:`LocalIndex` (payloads optional —
    only ``order``, ``counts`` and ``chunk_sizes`` are consulted).
    ``rank_to_node`` is the placement map, as ``Cluster.rank_to_node`` is
    for :func:`~repro.core.dump.dump_output`: designation, top-up coverage
    and the shuffle keep replicas off their sender's node where they can.
    It defaults to one rank per node, which is the paper's rank-granular
    placement; pass a machine's map only to place against it (a machine
    map for the node-distinct *metrics* goes to ``compute_metrics``).
    """
    world = len(indices)
    if world < 1:
        raise ValueError("need at least one rank")
    if config.compress is not None:
        raise ValueError(
            "compression requires real payloads: use the threaded dump_output "
            "path (the fingerprints-only simulator cannot know frame sizes)"
        )
    if config.redundancy != "replication":
        raise ValueError(
            "parity redundancy requires real payloads: use the threaded "
            "dump_output path"
        )
    k_eff = config.effective_k(world)
    strategy = config.strategy
    result = SimResult(config=config)

    # Phase 2: collective reduction (coll-dedup only), replayed on the exact
    # merge tree of the recursive-doubling allreduce.
    view: Optional[GlobalView] = None
    view_of_rank: Optional[List[GlobalView]] = None
    if strategy is Strategy.COLL_DEDUP:
        if config.dedup_domain_size is None:
            view, _table, level_nbytes = simulate_global_view(
                [idx.counts.keys() for idx in indices], k_eff, config.f_threshold,
                node_of=rank_to_node,
            )
            result.reduction_level_nbytes = level_nbytes
        else:
            # Dedup domains: one independent reduction per group of
            # consecutive ranks; concurrent domains cost the max per round.
            d_size = config.dedup_domain_size
            view_of_rank = [None] * world  # type: ignore[list-item]
            level_max: List[int] = []
            for start in range(0, world, d_size):
                ranks = list(range(start, min(start + d_size, world)))
                domain_view, _t, levels = simulate_global_view(
                    [indices[r].counts.keys() for r in ranks],
                    k_eff,
                    config.f_threshold,
                    node_of=rank_to_node,
                    rank_ids=ranks,
                )
                for r in ranks:
                    view_of_rank[r] = domain_view
                for i, nbytes in enumerate(levels):
                    if i < len(level_max):
                        level_max[i] = max(level_max[i], nbytes)
                    else:
                        level_max.append(nbytes)
            result.reduction_level_nbytes = level_max
            view = view_of_rank[0]  # representative (result.view diagnostics)
        result.view = view

    def rank_view(rank: int) -> Optional[GlobalView]:
        return view_of_rank[rank] if view_of_rank is not None else view

    # Per-rank plans and the SendLoad matrix.
    plans = [
        build_plan(
            rank,
            indices[rank],
            rank_view(rank),
            k_eff,
            world,
            dedup_local=strategy is not Strategy.NO_DEDUP,
            node_of=rank_to_node,
        )
        for rank in range(world)
    ]
    result.plans = plans
    placement = place([plan.load for plan in plans], config, rank_to_node)
    result.placement = placement

    # Per-rank reports + the global placement map.  View stats are memoised
    # per distinct view object (one per dedup domain, or one global).
    view_stats: Dict[int, Tuple[int, int]] = {}

    def stats_of(v: Optional[GlobalView]) -> Tuple[int, int]:
        if v is None:
            return 0, 0
        key = id(v)
        if key not in view_stats:
            view_stats[key] = (len(v), v.nbytes_estimate())
        return view_stats[key]
    placements: Dict[Fingerprint, Set[int]] = {}
    result.placements = placements
    reports: List[DumpReport] = []
    received_chunks = [0] * world
    received_bytes = [0] * world
    for rank in range(world):
        idx = indices[rank]
        plan = plans[rank]
        report = DumpReport(rank=rank, strategy=strategy.value, k=k_eff)
        report.n_chunks = idx.total_chunks
        report.dataset_bytes = idx.total_bytes
        report.hashed_bytes = idx.total_bytes
        report.local_unique_chunks = idx.unique_chunks
        report.local_unique_bytes = idx.unique_bytes
        if rank_view(rank) is not None:
            report.view_entries, report.view_bytes = stats_of(rank_view(rank))
        report.discarded_chunks = len(plan.discarded_fps)
        report.load = plan.load
        report.shuffle_position = placement.positions[rank]
        report.partners = placement.partners[rank]

        for fp in plan.store_fps:
            report.stored_chunks += 1
            report.stored_bytes += idx.chunk_sizes[fp]
            placements.setdefault(fp, set()).add(rank)
        for target, fps in zip(report.partners, plan.partner_chunks):
            count = len(fps)
            nbytes = sum(idx.chunk_sizes[fp] for fp in fps)
            report.sent_per_partner.append(count)
            report.sent_chunks += count
            report.sent_bytes += nbytes
            received_chunks[target] += count
            received_bytes[target] += nbytes
            for fp in fps:
                placements.setdefault(fp, set()).add(target)
        reports.append(report)
    for report in reports:
        report.received_chunks = received_chunks[report.rank]
        report.received_bytes = received_bytes[report.rank]
    result.reports = reports
    return result
