#!/usr/bin/env python
"""Multi-level checkpointing: surviving more than K-1 failures.

Partner replication (the paper's contribution) protects against up to K-1
simultaneous node failures at local-storage speed; the parallel file
system is orders of magnitude slower but survives anything.  The SCR-style
multi-level policy combines them: every checkpoint is an epoch of a
checkpoint-service tenant (L1, local+partner, dedup-aware), and every third
one is also flushed to the PFS (L2).  On restart, all ranks agree on the
newest epoch every rank can restore from some level, preferring L1.

This example runs a toy job, then plays three escalating disasters:

1. one node lost            -> newest checkpoint restored from L1;
2. a rank AND its partner   -> group agrees to roll back to the newest
                               PFS-flushed id; wounded ranks read L2;
3. every node lost          -> full restart from the PFS alone.

Run:  python examples/multilevel_checkpointing.py
"""

from typing import List, Tuple

import numpy as np

from repro import DumpConfig
from repro.analysis.tables import format_table, human_bytes
from repro.apps import MemoryRegistry
from repro.storage import ParallelFileSystem, StorageError
from repro.svc import CheckpointService

N_RANKS = 8
K = 2
STEPS = 12
INTERVAL = 2  # L1 checkpoint every 2 steps
PFS_EVERY = 3  # L2 flush every 3rd checkpoint
TENANT = "app"


def checkpoint(service, registry, pfs, pfs_every: int) -> int:
    """L1: the tenant's next delta epoch; every ``pfs_every``-th epoch is
    also flushed to the PFS (L2).  Returns the epoch."""
    if pfs_every < 1:
        raise ValueError(f"pfs_every must be >= 1, got {pfs_every}")
    service.submit(TENANT, registry, kind="delta")
    (outcome,) = service.drain()
    epoch = outcome.tenant_dump_id
    if epoch % pfs_every == 0:
        for rank in range(service.n_ranks):
            pfs.write_dataset(rank, epoch, registry.build_dataset(rank, service.n_ranks))
    return epoch


def restart(service, registry, pfs) -> Tuple[int, List[str]]:
    """Restore every rank from the newest epoch all ranks can restore from
    some level, each from L1 when it can.  Returns the epoch and each
    rank's level; raises ``StorageError`` when no epoch is common."""
    chain = service.chain_of(TENANT)

    def l1_ok(rank, epoch):
        return chain.verify_epoch(rank, epoch) is None

    common = set.intersection(*(
        {e for e in chain.live_epochs() if l1_ok(rank, e)} | set(pfs.dumps_for(rank))
        for rank in range(service.n_ranks)
    ))
    if not common:
        raise StorageError("no checkpoint restorable by all ranks on any level")
    epoch = max(common)
    levels = []
    for rank in range(service.n_ranks):
        if l1_ok(rank, epoch):
            dataset, _report = service.restore(TENANT, rank, epoch)
            levels.append("L1")
        else:
            dataset = pfs.read_dataset(rank, epoch)
            levels.append("L2")
        registry.restore(rank, dataset)
    return epoch, levels


def scenario(name, fail_nodes):
    config = DumpConfig(replication_factor=K, chunk_size=1024, f_threshold=1 << 17)
    service = CheckpointService(N_RANKS, config)
    service.register_tenant(TENANT)
    pfs = ParallelFileSystem()
    registry = MemoryRegistry()
    states = [np.full(2048, float(rank * 10_000)) for rank in range(N_RANKS)]
    for rank, state in enumerate(states):
        registry.register(rank, "state", state)
    for step in range(1, STEPS + 1):
        for state in states:
            state += 1.0
        if step % INTERVAL == 0:
            checkpoint(service, registry, pfs, PFS_EVERY)

    for node in fail_nodes:
        service.cluster.fail_node(node)
    epoch, levels = restart(service, registry, pfs)
    step_restored = (epoch + 1) * INTERVAL
    for rank, state in enumerate(states):
        assert np.all(state == rank * 10_000 + step_restored)
    return [
        name,
        str(fail_nodes) if fail_nodes else "-",
        epoch,
        step_restored,
        f"{levels.count('L1')} L1 / {levels.count('L2')} L2",
        human_bytes(pfs.stats.bytes_written),
    ]


def main() -> None:
    print(f"{N_RANKS} ranks, K={K}, {STEPS} steps; L1 every {INTERVAL} steps, "
          f"L2 every {PFS_EVERY} checkpoints (flushed ids 0 and 3).")
    rows = [
        scenario("tolerable (< K failures)", (2,)),
        scenario("partner pair lost", (0, 7)),
        scenario("total cluster loss", tuple(range(N_RANKS))),
    ]
    print(format_table(
        ["disaster", "failed nodes", "restored id", "state @ step",
         "restore levels", "PFS written"],
        rows,
    ))
    assert [row[2] for row in rows] == [5, 3, 3]
    print("\nScenario 1 restores the newest checkpoint (id 5, step 12) from "
          "local data; 2 and 3 roll back to the newest PFS-flushed id — the "
          "multi-level trade: rare flushes bound the rollback, cheap L1 "
          "checkpoints bound the common-case cost.")


if __name__ == "__main__":
    main()
