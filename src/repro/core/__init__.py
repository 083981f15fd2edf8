"""The paper's contribution: dedup-aware partner replication for collective dumps.

The public entry point is :func:`repro.core.dump.dump_output` — the paper's
``DUMP_OUTPUT(buffer, K)`` collective — plus the building blocks it composes:

* :mod:`~repro.core.chunking` / :mod:`~repro.core.fingerprint` — fixed-size
  chunking and chunk fingerprints (SHA-1 by default).
* :mod:`~repro.core.local_dedup` — phase 1: per-rank duplicate elimination.
* :mod:`~repro.core.hmerge` — phase 2's merge operator: top-F frequency
  counting with load-balanced designated-rank truncation.
* :mod:`~repro.core.global_dedup` — the ALLREDUCE(HMERGE) reduction and the
  resulting :class:`~repro.core.hmerge.GlobalView`.
* :mod:`~repro.core.planner` — per-rank ``Load`` vectors and round-robin
  assignment of missing replicas (Algorithm 1 lines 4-9).
* :mod:`~repro.core.shuffle` — Algorithm 2 (load-aware partner selection).
* :mod:`~repro.core.offsets` — Algorithm 3 (single-sided window planning)
  and :func:`~repro.core.offsets.place`, the one placement decision.
* :mod:`~repro.core.restore` — manifest-driven restore, the correctness
  proof-of-the-pudding for every strategy.
"""

from repro.core.config import DumpConfig, Strategy
from repro.core.chunking import Dataset, iter_chunk_views, join_chunks, split_chunks
from repro.core.fingerprint import Fingerprinter
from repro.core.fpcache import FingerprintCache
from repro.core.local_dedup import LocalIndex, local_dedup_batched
from repro.core.hmerge import GlobalView, MergeTable, hmerge
from repro.core.shuffle import identity_shuffle, partners_of, rank_shuffle
from repro.core.offsets import Placement, WindowLayout, place, window_layout
from repro.core.planner import ReplicationPlan, build_plan
from repro.core.dump import DumpReport, dump_output
from repro.core.restore import restore_dataset
from repro.core.collective_restore import CollectiveRestoreReport, load_input
from repro.core.runner import run_collective

__all__ = [
    "CollectiveRestoreReport",
    "Dataset",
    "DumpConfig",
    "DumpReport",
    "FingerprintCache",
    "Fingerprinter",
    "GlobalView",
    "LocalIndex",
    "MergeTable",
    "Placement",
    "ReplicationPlan",
    "Strategy",
    "WindowLayout",
    "build_plan",
    "dump_output",
    "hmerge",
    "identity_shuffle",
    "iter_chunk_views",
    "join_chunks",
    "load_input",
    "local_dedup_batched",
    "partners_of",
    "place",
    "rank_shuffle",
    "restore_dataset",
    "run_collective",
    "split_chunks",
    "window_layout",
]
