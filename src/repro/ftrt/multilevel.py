"""Multi-level checkpointing: local+partner (L1) with PFS flushes (L2).

The scheme of Moody et al. (SCR), which the paper cites as the context its
library slots into: frequent, cheap checkpoints go to node-local storage
with partner replication (this paper's ``DUMP_OUTPUT``); every Nth
checkpoint is *additionally* flushed to the parallel file system, which
survives failures partner replication cannot (more than K-1 nodes at once,
or a full-system outage).

Restart policy: prefer the newest L1 checkpoint that is still fully
recoverable; fall back to the newest complete L2 copy otherwise — possibly
rolling further back in time, which is the multi-level trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import DumpConfig
from repro.core.dump import DumpReport
from repro.core.restore import restore_dataset, verify_restorable
from repro.ftrt.runtime import CheckpointRuntime
from repro.simmpi.comm import Communicator
from repro.storage.local_store import Cluster, StorageError
from repro.storage.pfs import ParallelFileSystem


@dataclass
class MultiLevelStats:
    """Rank-local accounting across both levels."""

    l1_checkpoints: int = 0
    l2_flushes: int = 0
    l1_restarts: int = 0
    l2_restarts: int = 0
    pfs_bytes_written: int = 0


class MultiLevelRuntime:
    """Per-rank multi-level checkpoint driver.

    Parameters
    ----------
    interval:
        Steps between L1 (local+partner) checkpoints.
    pfs_every:
        Every ``pfs_every``-th checkpoint is also flushed to the PFS
        (1 = every checkpoint; the paper's premise is that this is too
        slow to do often).
    """

    def __init__(
        self,
        comm: Communicator,
        cluster: Cluster,
        pfs: ParallelFileSystem,
        config: DumpConfig,
        interval: int,
        pfs_every: int = 4,
    ) -> None:
        if pfs_every < 1:
            raise ValueError(f"pfs_every must be >= 1, got {pfs_every}")
        self.runtime = CheckpointRuntime(comm, cluster, config, interval)
        self.pfs = pfs
        self.pfs_every = pfs_every
        self.stats = MultiLevelStats()

    # -- delegation -------------------------------------------------------------
    @property
    def comm(self) -> Communicator:
        return self.runtime.comm

    @property
    def cluster(self) -> Cluster:
        return self.runtime.cluster

    @property
    def memory(self):
        return self.runtime.memory

    @property
    def last_dump_id(self) -> Optional[int]:
        return self.runtime.last_dump_id

    # -- checkpointing -------------------------------------------------------------
    def maybe_checkpoint(self, step: int) -> Optional[DumpReport]:
        if step > 0 and step % self.runtime.interval == 0:
            return self.checkpoint()
        return None

    def checkpoint(self) -> DumpReport:
        """L1 checkpoint; every ``pfs_every``-th one also flushes to L2."""
        report = self.runtime.checkpoint()
        self.stats.l1_checkpoints += 1
        dump_id = self.runtime.last_dump_id
        if dump_id is not None and dump_id % self.pfs_every == 0:
            dataset = self.runtime.memory.capture()
            nbytes = self.pfs.write_dataset(self.comm.rank, dump_id, dataset)
            self.stats.l2_flushes += 1
            self.stats.pfs_bytes_written += nbytes
        return report

    # -- restart -------------------------------------------------------------------
    def restorable_dump_ids(self) -> set:
        """Dump ids THIS rank can restore, from either level."""
        ok = set()
        last = self.runtime.last_dump_id
        if last is not None:
            for dump_id in range(last + 1):
                if verify_restorable(self.cluster, self.comm.rank, dump_id) is None:
                    ok.add(dump_id)
        ok.update(self.pfs.dumps_for(self.comm.rank))
        return ok

    def restart(self) -> Tuple[int, str]:
        """Collective restart: all ranks agree on the newest dump id every
        rank can restore, then each pulls it from whichever level serves it
        (L1 preferred — local data, no PFS read traffic).

        Returns ``(dump_id, level_used_by_this_rank)``.  A consistent dump
        id across ranks is what makes the restored global state coherent;
        levels may differ per rank.  Raises
        :class:`~repro.storage.local_store.StorageError` (on every rank)
        when no common checkpoint exists.
        """
        from repro.simmpi import collectives

        common = collectives.allreduce(
            self.comm, self.restorable_dump_ids(), lambda a, b: a & b
        )
        if not common:
            raise StorageError(
                f"rank {self.comm.rank}: no checkpoint restorable by all "
                "ranks on any level"
            )
        dump_id = max(common)
        if verify_restorable(self.cluster, self.comm.rank, dump_id) is None:
            dataset, _report = restore_dataset(
                self.cluster,
                self.comm.rank,
                dump_id,
                trace=self.comm.trace,
            )
            level = "L1"
            self.stats.l1_restarts += 1
        else:
            dataset = self.pfs.read_dataset(self.comm.rank, dump_id)
            level = "L2"
            self.stats.l2_restarts += 1
        self.runtime.memory.restore(dataset)
        return dump_id, level
