"""Node-local storage substrate.

Models the paper's per-node local storage devices (HDD/SSD): a
content-addressed :class:`~repro.storage.local_store.ChunkStore` per node, a
:class:`~repro.storage.local_store.Cluster` that groups them and answers
"which live nodes hold this fingerprint?", dataset
:class:`~repro.storage.manifest.Manifest` records, and failure injection in
:mod:`~repro.storage.failures`.
"""

from repro.storage.local_store import (
    ChunkStore,
    Cluster,
    ClusterDelta,
    NodeDelta,
    NodeStorage,
    ShardedChunkStore,
    StorageError,
    StoreDelta,
    make_chunk_store,
)
from repro.storage.manifest import Manifest
from repro.storage.failures import FailureInjector, RecoverabilityReport
from repro.storage.pfs import ParallelFileSystem, PFSStats

__all__ = [
    "ChunkStore",
    "Cluster",
    "ClusterDelta",
    "FailureInjector",
    "Manifest",
    "NodeDelta",
    "NodeStorage",
    "PFSStats",
    "ParallelFileSystem",
    "RecoverabilityReport",
    "ShardedChunkStore",
    "StorageError",
    "StoreDelta",
    "make_chunk_store",
]
