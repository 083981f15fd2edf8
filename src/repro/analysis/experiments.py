"""The paper's experiment matrix as reusable runners.

A :class:`WorkloadRunner` binds one application workload to its timeline
and scale factor, caches per-N fingerprint indices (the expensive part),
and exposes :meth:`~WorkloadRunner.run` — one simulated dump priced on the
Shamrock profile.  ``hpccg_runner()`` / ``cm1_runner()`` construct the two
paper configurations at reduced scale (see DESIGN.md for the substitution
rationale); every benchmark drives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.base import SegmentedWorkload
from repro.apps.cm1 import CM1
from repro.apps.hpccg import HPCCG
from repro.core.config import DumpConfig, Strategy
from repro.core.local_dedup import LocalIndex
from repro.core.offsets import place
from repro.netsim.cost_model import DumpTimeBreakdown, dump_time
from repro.netsim.machine import MachineProfile
from repro.netsim.timeline import AppTimeline, completion_time, execution_increase
from repro.sim.driver import SimResult, simulate_dump
from repro.sim.metrics import DumpMetrics, compute_metrics

PAPER_F_THRESHOLD = 1 << 17


@dataclass
class ExperimentRun:
    """One (workload, N, strategy, K) cell of the evaluation."""

    workload: str
    n_ranks: int
    strategy: Strategy
    k: int
    shuffle: bool
    result: SimResult
    metrics: DumpMetrics
    breakdown: DumpTimeBreakdown
    volume_scale: float
    completion_s: float
    increase_s: float

    @property
    def paper_scale(self) -> float:
        """Multiply simulated byte volumes by this for paper-scale values."""
        return self.volume_scale


class WorkloadRunner:
    """Runs the evaluation matrix for one application workload."""

    def __init__(
        self,
        app: SegmentedWorkload,
        timeline: AppTimeline,
        paper_bytes_per_process: float,
        machine: Optional[MachineProfile] = None,
        chunk_size: int = 4096,
    ) -> None:
        self.app = app
        self.timeline = timeline
        self.paper_bytes_per_process = paper_bytes_per_process
        self.machine = machine or MachineProfile.shamrock()
        self.chunk_size = chunk_size
        self._index_cache: Dict[int, List[LocalIndex]] = {}

    @property
    def name(self) -> str:
        return self.app.name

    def indices(self, n_ranks: int) -> List[LocalIndex]:
        cached = self._index_cache.get(n_ranks)
        if cached is None:
            cached = self.app.build_indices(n_ranks, chunk_size=self.chunk_size)
            self._index_cache[n_ranks] = cached
        return cached

    def volume_scale(self, n_ranks: int) -> float:
        return self.paper_bytes_per_process / self.app.per_rank_bytes(n_ranks)

    def run(
        self,
        n_ranks: int,
        strategy: Strategy = Strategy.COLL_DEDUP,
        k: int = 3,
        shuffle: bool = True,
        f_threshold: int = PAPER_F_THRESHOLD,
        dedup_domain_size=None,
    ) -> ExperimentRun:
        """Simulate + price one dump configuration.

        Placement is the paper's, rank-granular; the machine's rank -> node
        map only prices the dump and counts node-distinct replicas."""
        config = DumpConfig(
            replication_factor=k,
            chunk_size=self.chunk_size,
            f_threshold=f_threshold,
            strategy=strategy,
            shuffle=shuffle,
            dedup_domain_size=dedup_domain_size,
        )
        indices = self.indices(n_ranks)
        rank_to_node = self.machine.rank_to_node(n_ranks)
        result = simulate_dump(indices, config)
        metrics = compute_metrics(indices, result, rank_to_node=rank_to_node)
        scale = self.volume_scale(n_ranks)
        breakdown = dump_time(result, self.machine, volume_scale=scale)
        return ExperimentRun(
            workload=self.name,
            n_ranks=n_ranks,
            strategy=strategy,
            k=k,
            shuffle=shuffle,
            result=result,
            metrics=metrics,
            breakdown=breakdown,
            volume_scale=scale,
            completion_s=completion_time(self.timeline, n_ranks, breakdown),
            increase_s=execution_increase(self.timeline, breakdown),
        )

    def run_strategies(
        self, n_ranks: int, k: int = 3, **kwargs
    ) -> Dict[Strategy, ExperimentRun]:
        """All three strategies for one (N, K) cell."""
        return {
            strategy: self.run(n_ranks, strategy=strategy, k=k, **kwargs)
            for strategy in Strategy
        }


def hpccg_runner(
    nx: int = 16, machine: Optional[MachineProfile] = None, chunk_size: int = 256
) -> WorkloadRunner:
    """The paper's HPCCG setup at 1/~1000 scale: 150^3 sub-blocks become
    nx^3, checkpoint at CG iteration 100.

    The chunk size is scaled along with the working set (512 B here vs the
    paper's 4 KB pages on a ~1000x larger state).  At the paper's scale a
    4 KB page covers ~19 matrix rows of a 150-row-pitch block, so almost
    all pages are pure-interior and identical across ranks; keeping 4 KB
    chunks on an nx=16 block would put a boundary row in nearly every
    chunk and destroy that structure — a pure scale artifact.
    """
    app = HPCCG(nx=nx, ny=nx, nz=nx, max_iterations=100)
    return WorkloadRunner(
        app,
        AppTimeline.hpccg(),
        paper_bytes_per_process=HPCCG.PAPER_BYTES_PER_PROCESS,
        machine=machine,
        chunk_size=chunk_size,
    )


def cm1_runner(
    nx: int = 24,
    nz: int = 12,
    machine: Optional[MachineProfile] = None,
    chunk_size: int = 512,
) -> WorkloadRunner:
    """The paper's CM1 hurricane setup at reduced scale: 200x200 subdomains
    become nx x nx, checkpoint after 30 steps.  Chunk size scaled with the
    working set (see :func:`hpccg_runner`)."""
    app = CM1(
        nx=nx, ny=nx, nz=nz, n_steps=30, vortex_radius_frac=0.12,
        table_fraction=0.30,
    )
    return WorkloadRunner(
        app,
        AppTimeline.cm1(),
        paper_bytes_per_process=CM1.PAPER_BYTES_PER_PROCESS,
        machine=machine,
        chunk_size=chunk_size,
    )


def fig2_example(k: int = 3) -> Dict[str, object]:
    """The paper's Figure 2 worked example, computed (not hard-coded).

    Six ranks, K=3; the first two must send 100 chunks to each partner,
    the rest 10.  Returns the naive and load-aware max receive sizes
    (paper: 200 vs 110) and the shuffle used.
    """
    send_load = [[0] + [s] * (k - 1) for s in [100, 100, 10, 10, 10, 10]]
    naive, shuffled = (
        place(send_load, DumpConfig(replication_factor=k, shuffle=shuffle))
        for shuffle in (False, True)
    )
    return {
        "naive_max_receive": max(naive.layout.window_slots.values()),
        "shuffled_max_receive": max(shuffled.layout.window_slots.values()),
        "shuffle": shuffled.shuffle,
        "k": k,
    }
