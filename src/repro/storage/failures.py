"""Failure injection and recoverability analysis.

The point of partner replication is surviving node failures.  These helpers
kill nodes (deterministically or at random), then check whether every
dumped dataset is still fully reconstructable from the survivors — the
end-to-end property the whole library exists to provide.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.storage.local_store import Cluster, StorageError


@dataclass
class RecoverabilityReport:
    """Outcome of a recoverability sweep after failures."""

    failed_nodes: List[int] = field(default_factory=list)
    recoverable_ranks: List[int] = field(default_factory=list)
    lost_ranks: List[int] = field(default_factory=list)
    missing_chunks: Dict[int, int] = field(default_factory=dict)  # rank -> count

    @property
    def all_recoverable(self) -> bool:
        return not self.lost_ranks


class FailureInjector:
    """Kills nodes and audits what survives."""

    def __init__(self, cluster: Cluster, seed: Optional[int] = None) -> None:
        self.cluster = cluster
        self._rng = random.Random(seed)

    def fail_nodes(self, node_ids: Sequence[int]) -> None:
        for node_id in node_ids:
            self.cluster.fail_node(node_id)

    def fail_random_nodes(self, count: int) -> List[int]:
        """Fail ``count`` distinct live nodes chosen uniformly at random."""
        candidates = [n.node_id for n in self.cluster.alive_nodes]
        if count > len(candidates):
            raise ValueError(
                f"cannot fail {count} nodes; only {len(candidates)} alive"
            )
        victims = self._rng.sample(candidates, count)
        self.fail_nodes(victims)
        return victims

    def audit(self, dump_id: int, ranks: Optional[Sequence[int]] = None) -> RecoverabilityReport:
        """Check every rank's dataset for full reconstructability.

        A rank is recoverable iff a manifest replica survives *and* every
        fingerprint it references has at least one live holder — or, under
        the parity redundancy mode, an erasure-coded stripe with enough
        surviving shards to decode it (consistent with
        :func:`repro.core.restore.verify_restorable`, which drives the same
        check before an actual restore).
        """
        from repro.erasure.ec_dump import find_stripe

        if ranks is None:
            ranks = range(self.cluster.n_ranks)
        report = RecoverabilityReport(
            failed_nodes=[n.node_id for n in self.cluster.nodes if not n.alive]
        )
        for rank in ranks:
            try:
                manifest = self.cluster.find_manifest(rank, dump_id)
            except StorageError:
                report.lost_ranks.append(rank)
                report.missing_chunks[rank] = -1  # manifest itself lost
                continue
            missing = 0
            for fp in set(manifest.fingerprints):
                if self.cluster.locate(fp):
                    continue
                stripe = find_stripe(self.cluster, fp, dump_id)
                if stripe is None or stripe.margin < 0:
                    missing += 1
            if missing:
                report.lost_ranks.append(rank)
                report.missing_chunks[rank] = missing
            else:
                report.recoverable_ranks.append(rank)
        return report

    def mid_dump_hook(
        self, node_id: int, phase: str = "exchange",
        rank: Optional[int] = None,
    ) -> Callable[[str, int], None]:
        """A ``dump_output`` phase hook that kills ``node_id`` mid-dump.

        The returned callable is passed as ``dump_output(...,
        phase_hook=...)``; the first rank to enter ``phase`` fails the node
        (exactly once, thread-safe), so the dump experiences the loss while
        its exchange/write phases are still in flight — the scenario
        every dump must survive (the victim's commits are dropped and
        accounted in ``DumpReport.dropped_chunks``).

        With ``rank`` given, only that specific rank triggers the failure
        instead of whichever rank reaches the phase first.  Thread
        scheduling no longer picks the trigger, so the crash point is
        deterministic — and when ``rank`` maps onto ``node_id`` itself, the
        failure is visible in the dying rank's own cluster view under both
        the thread and the process backend, which is what cross-backend
        differential fuzzing requires.
        """
        lock = threading.Lock()
        fired = [False]

        def hook(phase_name: str, hook_rank: int) -> None:
            if phase_name != phase:
                return
            if rank is not None and hook_rank != rank:
                return
            with lock:
                if fired[0]:
                    return
                fired[0] = True
            self.cluster.fail_node(node_id)

        return hook
