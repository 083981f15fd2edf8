"""repro: dedup-aware partner replication for collective I/O dumps.

A complete reproduction of Bogdan Nicolae, *"Leveraging naturally
distributed data redundancy to reduce collective I/O replication
overhead"*, IPDPS 2015 — the ``DUMP_OUTPUT`` collective that co-optimizes
inter-process deduplication with partner replication, plus every substrate
it runs on: an MPI-like SPMD layer, node-local content-addressed storage,
the HPCCG/CM1 workloads, a multi-tenant checkpoint service and the
performance model that regenerates the paper's evaluation.

Quickstart — an application checkpointed through the checkpoint service,
each checkpoint an epoch of the tenant's chain::

    import numpy as np

    from repro import DumpConfig
    from repro.apps import MemoryRegistry
    from repro.svc import CheckpointService

    service = CheckpointService(8, DumpConfig(replication_factor=3))
    service.register_tenant("app")
    registry = MemoryRegistry()
    states = [np.full(1 << 16, float(rank)) for rank in range(8)]
    for rank, state in enumerate(states):
        registry.register(rank, "state", state)

    service.submit("app", registry, kind="delta")  # epoch 0 is a full
    service.drain()
    states[3][:512] = -1.0
    service.submit("app", registry, kind="delta")  # epoch 1: changed chunks
    service.drain()

    service.cluster.fail_node(3)
    dataset, _report = service.restore("app", rank=3, tenant_dump_id=1)
    registry.restore(3, dataset)  # written back in place
    service.repair()  # back to K replicas

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

from repro.core import (
    Dataset,
    DumpConfig,
    DumpReport,
    Fingerprinter,
    GlobalView,
    MergeTable,
    Strategy,
    dump_output,
    hmerge,
    rank_shuffle,
    restore_dataset,
)
from repro.storage import Cluster
from repro.simmpi import World, run_spmd

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Dataset",
    "DumpConfig",
    "DumpReport",
    "Fingerprinter",
    "GlobalView",
    "MergeTable",
    "Strategy",
    "World",
    "__version__",
    "dump_output",
    "hmerge",
    "rank_shuffle",
    "restore_dataset",
    "run_spmd",
]
