"""Hybrid redundancy: natural replicas + erasure coding for rare chunks.

The coll-dedup pipeline leaves two classes of chunks short of the target
resilience K: out-of-view (treated-unique) chunks and in-view chunks with
D < K natural copies.  Plain coll-dedup tops them up with K-D replicas;
the hybrid policy instead stripes each rank's short chunks into RS(n, k)
groups, storing parity on partners.  For the same "survive any m node
failures" guarantee (m = K-1 replicas vs m = n-k parity shards), parity
costs ``m/k`` of the data instead of ``m`` times the data.

The policy is both *analytic* (overhead accounting used by the extension
bench) and *functional*: :meth:`HybridPolicy.protect_rank` really encodes,
and :meth:`HybridPolicy.recover_chunks` really decodes after failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.hmerge import PAD, GlobalView
from repro.core.local_dedup import LocalIndex
from repro.erasure.reed_solomon import ReedSolomon


@dataclass
class HybridPlanSummary:
    """Cluster-wide overhead comparison: replication top-up vs parity."""

    k_replication: int
    stripe_data: int
    stripe_parity: int
    short_chunks: int = 0
    short_bytes: int = 0
    replication_topup_bytes: int = 0
    parity_bytes: int = 0

    @property
    def savings_fraction(self) -> float:
        """Fraction of top-up traffic/storage saved by parity."""
        if not self.replication_topup_bytes:
            return 0.0
        return 1.0 - self.parity_bytes / self.replication_topup_bytes


@dataclass
class StripeRecord:
    """One encoded stripe: which chunks it covers and its parity shards."""

    fingerprints: List[Fingerprint]
    shard_width: int
    parity: List[bytes]


class HybridPolicy:
    """RS-based protection of the chunks replication would have copied.

    Parameters
    ----------
    stripe_data:
        Data shards per stripe (k of RS).
    stripe_parity:
        Parity shards per stripe (n - k); equal failure coverage to a
        replication factor of ``stripe_parity + 1``.
    """

    def __init__(self, stripe_data: int = 8, stripe_parity: int = 2) -> None:
        if stripe_data < 1 or stripe_parity < 1:
            raise ValueError("stripe_data and stripe_parity must be >= 1")
        self.stripe_data = stripe_data
        self.stripe_parity = stripe_parity
        self.codec = ReedSolomon(stripe_data + stripe_parity, stripe_data)

    # -- analytic comparison -------------------------------------------------
    def summarize(
        self,
        indices: Sequence[LocalIndex],
        view: Optional[GlobalView],
        k: int,
    ) -> HybridPlanSummary:
        """Overhead of protecting all short chunks: replication vs parity."""
        summary = HybridPlanSummary(
            k_replication=k,
            stripe_data=self.stripe_data,
            stripe_parity=self.stripe_parity,
        )
        for rank, idx in enumerate(indices):
            fps = list(idx.chunk_sizes)
            sizes = np.fromiter(idx.chunk_sizes.values(), np.int64, len(fps))
            # Out of the view a chunk is K-1 copies short; in it, its first
            # designated rank owes K-D and every other holder owes nothing.
            missing = np.full(len(fps), k - 1, dtype=np.int64)
            if view is not None:
                rows = view.rows(fps)
                seen = rows >= 0
                ranks = view.ranks[rows[seen]]
                owed = np.maximum(0, k - (ranks != PAD).sum(axis=1))
                missing[seen] = np.where(ranks[:, 0] == rank, owed, 0)
            sizes, missing = sizes[missing > 0], missing[missing > 0]
            parity = (self.stripe_parity * sizes + self.stripe_data - 1) // self.stripe_data
            summary.short_chunks += len(sizes)
            summary.short_bytes += int(sizes.sum())
            summary.replication_topup_bytes += int((missing * sizes).sum())
            summary.parity_bytes += int(parity.sum())
        return summary

    # -- functional path --------------------------------------------------------
    def protect_rank(
        self, chunks: Dict[Fingerprint, bytes], chunk_size: int
    ) -> List[StripeRecord]:
        """Encode a rank's short chunks into parity stripes.

        Chunks are packed into stripes of ``stripe_data`` (zero-padded to
        ``chunk_size``; a final short stripe pads with empty shards).
        """
        stripes: List[StripeRecord] = []
        fps = list(chunks.keys())
        for start in range(0, len(fps), self.stripe_data):
            group = fps[start : start + self.stripe_data]
            shards = [chunks[fp].ljust(chunk_size, b"\x00") for fp in group]
            while len(shards) < self.stripe_data:
                shards.append(b"\x00" * chunk_size)
            encoded = self.codec.encode(shards)
            stripes.append(
                StripeRecord(
                    fingerprints=list(group),
                    shard_width=chunk_size,
                    parity=encoded[self.stripe_data :],
                )
            )
        return stripes

    def recover_chunks(
        self,
        stripe: StripeRecord,
        surviving: Dict[Fingerprint, bytes],
        chunk_sizes: Dict[Fingerprint, int],
    ) -> Dict[Fingerprint, bytes]:
        """Rebuild the missing chunks of one stripe.

        ``surviving`` maps fingerprint -> payload for the stripe's chunks
        that are still readable; parity shards are assumed intact (they
        live on distinct partner nodes).  At most ``stripe_parity`` chunks
        may be missing.
        """
        available: Dict[int, bytes] = {}
        for pos, fp in enumerate(stripe.fingerprints):
            if fp in surviving:
                available[pos] = surviving[fp].ljust(stripe.shard_width, b"\x00")
        for pos in range(len(stripe.fingerprints), self.stripe_data):
            available[pos] = b"\x00" * stripe.shard_width  # padding shards
        for i, shard in enumerate(stripe.parity):
            available[self.stripe_data + i] = shard
        data = self.codec.decode(available)
        out: Dict[Fingerprint, bytes] = {}
        for pos, fp in enumerate(stripe.fingerprints):
            if fp not in surviving:
                out[fp] = data[pos][: chunk_sizes[fp]]
        return out
