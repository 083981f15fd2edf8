"""Interval-driven checkpoint/restart on top of ``DUMP_OUTPUT``.

One :class:`CheckpointRuntime` per rank (SPMD): the application calls
:meth:`~CheckpointRuntime.maybe_checkpoint` once per step; when the
interval elapses, all ranks collectively dump the captured memory.  After a
failure, :meth:`~CheckpointRuntime.restart` pulls the latest complete
checkpoint back into the registered memory regions — including chunks whose
only surviving replicas live on partner nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import DumpConfig
from repro.core.dump import DumpReport, dump_output
from repro.core.restore import restore_dataset
from repro.ftrt.memory import MemoryRegistry
from repro.obs.timeline import TimelineStore
from repro.simmpi.comm import Communicator
from repro.storage.local_store import Cluster


@dataclass
class CheckpointStats:
    """Rank-local accounting over a run."""

    checkpoints_taken: int = 0
    restarts: int = 0
    repairs: int = 0
    bytes_captured: int = 0
    bytes_sent: int = 0
    reports: List[DumpReport] = field(default_factory=list)
    repair_reports: List = field(default_factory=list)  # RepairReport


class CheckpointRuntime:
    """Per-rank checkpoint-restart driver.

    Parameters
    ----------
    comm:
        The rank's communicator.
    cluster:
        Storage cluster shared by all ranks.
    config:
        Dump configuration (strategy, K, chunk size, ...).
    interval:
        Checkpoint every ``interval`` application steps (the paper: every
        30 CM1 time-steps / at HPCCG iteration 100).
    auto_repair:
        When True, every restart is followed by a collective
        :meth:`repair`: the surviving checkpoints are re-replicated back to
        the configured K before the application resumes, so the restarted
        run does not compute on top of a silently degraded safety margin.
    timeline:
        Optional :class:`~repro.obs.timeline.TimelineStore` fed one sample
        per checkpoint/restart/repair, tagged by the last application step
        seen (the logical tick).  Pass ``TimelineStore(capacity=0)`` to
        disable; the default gives the runtime its own bounded store.
    """

    def __init__(
        self,
        comm: Communicator,
        cluster: Cluster,
        config: DumpConfig,
        interval: int,
        auto_repair: bool = False,
        timeline: Optional[TimelineStore] = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.comm = comm
        self.cluster = cluster
        self.config = config
        self.interval = interval
        self.auto_repair = auto_repair
        self.memory = MemoryRegistry()
        self.stats = CheckpointStats()
        self.timeline = timeline if timeline is not None else TimelineStore()
        self._next_dump_id = 0
        #: last application step passed to :meth:`maybe_checkpoint`; the
        #: logical tick stamped on timeline samples.
        self.step = 0

    @property
    def last_dump_id(self) -> Optional[int]:
        """Id of the most recent completed checkpoint, or None."""
        return self._next_dump_id - 1 if self._next_dump_id else None

    def maybe_checkpoint(self, step: int) -> Optional[DumpReport]:
        """Checkpoint iff ``step`` is a positive multiple of the interval.

        All ranks must call this with the same ``step`` sequence — the dump
        is collective.
        """
        self.step = max(self.step, step)
        if step > 0 and step % self.interval == 0:
            return self.checkpoint()
        return None

    def _record(self, op: str, elapsed: float, **values) -> None:
        if self.timeline.enabled:
            self.timeline.record(
                op,
                self.step,
                strategy=getattr(
                    self.config.strategy, "value", str(self.config.strategy)
                ),
                backend="ftrt",
                latency_s=elapsed,
                **values,
            )

    def checkpoint(self) -> DumpReport:
        """Collectively dump the registered memory now."""
        dataset = self.memory.capture()
        start = time.perf_counter()
        with self.comm.trace.span("checkpoint", dump_id=self._next_dump_id):
            report = dump_output(
                self.comm, dataset, self.config, self.cluster,
                dump_id=self._next_dump_id,
            )
        elapsed = time.perf_counter() - start
        self._record(
            "dump",
            elapsed,
            epoch=self._next_dump_id,
            bytes_moved=report.sent_bytes,
            logical_bytes=dataset.nbytes,
            chunks=report.n_chunks,
        )
        self._next_dump_id += 1
        self.stats.checkpoints_taken += 1
        self.stats.bytes_captured += dataset.nbytes
        self.stats.bytes_sent += report.sent_bytes
        self.stats.reports.append(report)
        return report

    def restart(self, dump_id: Optional[int] = None) -> int:
        """Restore registered memory from a checkpoint (default: latest).

        Local operation per rank (no collectives): each rank pulls its own
        dataset, possibly from partner replicas.  Returns the dump id used.
        """
        if dump_id is None:
            dump_id = self.last_dump_id
        if dump_id is None:
            raise RuntimeError("no checkpoint has been taken yet")
        start = time.perf_counter()
        with self.comm.trace.span("restart", dump_id=dump_id):
            dataset, report = restore_dataset(
                self.cluster,
                self.comm.rank,
                dump_id,
                trace=self.comm.trace,
            )
        total = report.local_chunks + report.remote_chunks
        self._record(
            "restore",
            time.perf_counter() - start,
            epoch=dump_id,
            bytes=report.total_bytes,
            remote_bytes=report.remote_bytes,
            chunks=total,
            locality=report.local_chunks / total if total else 1.0,
            decoded_chunks=report.decoded_chunks,
        )
        self.memory.restore(dataset)
        self.stats.restarts += 1
        if self.auto_repair:
            self.repair()
        return dump_id

    def restart_collective(self, dump_id: Optional[int] = None) -> int:
        """Collective restart via ``LOAD_INPUT`` (all ranks together).

        Unlike :meth:`restart`, missing chunks are pulled through two
        all-to-all rounds (the measured restart traffic of a real job-wide
        recovery) and an unrecoverable rank aborts every rank consistently.
        """
        from repro.core.collective_restore import load_input

        if dump_id is None:
            dump_id = self.last_dump_id
        if dump_id is None:
            raise RuntimeError("no checkpoint has been taken yet")
        start = time.perf_counter()
        with self.comm.trace.span("restart", dump_id=dump_id, collective=True):
            dataset, report = load_input(
                self.comm, self.cluster, self.config, dump_id
            )
        total = report.local_chunks + report.pulled_chunks
        self._record(
            "restore",
            time.perf_counter() - start,
            epoch=dump_id,
            bytes=report.total_bytes,
            remote_bytes=report.pulled_bytes,
            chunks=total,
            locality=report.local_chunks / total if total else 1.0,
        )
        self.memory.restore(dataset)
        self.stats.restarts += 1
        if self.auto_repair:
            self.repair()
        return dump_id

    def repair(
        self,
        target_k: Optional[int] = None,
        dump_ids: Optional[Sequence[int]] = None,
    ):
        """Collectively re-replicate surviving checkpoints back to K.

        All ranks must call this together (it is a collective, like
        :meth:`checkpoint`).  Each rank scans the shared cluster state and
        plans independently — both steps are deterministic, so every rank
        derives the identical schedule with no extra coordination, in the
        spirit of the dump's offset planning — then the transfers run
        through the one-sided window machinery.  Returns the merged
        :class:`~repro.repair.executor.RepairReport` (same object contents
        on every rank).
        """
        from repro.repair import execute_repair, plan_repair, scan_cluster

        k = (
            target_k
            if target_k is not None
            else self.config.effective_k(self.comm.size)
        )
        start = time.perf_counter()
        with self.comm.trace.span("repair-scan", k=k):
            scan = scan_cluster(self.cluster, k, dump_ids)
        with self.comm.trace.span("repair-plan"):
            schedule = plan_repair(self.cluster, scan)
        report = execute_repair(self.comm, self.cluster, schedule, scan)
        self._record(
            "repair",
            time.perf_counter() - start,
            chunks_moved=report.chunks_moved,
            bytes_moved=report.bytes_moved,
            manifests_moved=report.manifests_moved,
        )
        self.stats.repairs += 1
        self.stats.repair_reports.append(report)
        return report


def run_checkpointed(
    world_size: int,
    cluster: Cluster,
    config: DumpConfig,
    interval: int,
    program,
    *args,
    auto_repair: bool = False,
    backend: Optional[str] = None,
    timeout: Optional[float] = None,
    **kwargs,
):
    """Run ``program(runtime, *args, **kwargs)`` on every rank of a world.

    Each rank gets its own :class:`CheckpointRuntime` (reach the
    communicator via ``runtime.comm``).  ``backend`` and ``timeout``
    default to ``REPRO_SPMD_BACKEND`` / ``REPRO_SPMD_TIMEOUT``, then thread
    and 60 s; under the process backend the ranks'
    cluster writes — checkpoints, repairs — are merged back into ``cluster``
    via :func:`repro.core.runner.run_collective`, so the caller's cluster
    ends up identical to a thread-backend run.

    Returns the rank-ordered list of program results.
    """
    from repro.core.runner import run_collective

    def rank_main(comm: Communicator, *p_args, **p_kwargs):
        runtime = CheckpointRuntime(
            comm, cluster, config, interval, auto_repair=auto_repair
        )
        return program(runtime, *p_args, **p_kwargs)

    results, _world = run_collective(
        world_size,
        rank_main,
        *args,
        cluster=cluster,
        backend=backend,
        timeout=timeout,
        **kwargs,
    )
    return results
