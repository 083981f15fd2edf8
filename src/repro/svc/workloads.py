"""Tenant workloads with a controlled cross-tenant shared fraction.

:class:`TenantWorkload` models the service's target population: every
tenant checkpoints some bytes that are *common to all tenants* (identical
base-model weights, zero pages, framework state — the natural redundancy
the paper exploits across ranks, stretched across users) plus bytes only
it produces.  ``overlap`` picks the shared fraction exactly, so tests and
the EXPERIMENTS recipe can assert physical < sum-of-logical with known
margins.
"""

from __future__ import annotations

from typing import List

from repro.apps.base import Segment, SegmentedWorkload
from repro.apps.synthetic import SyntheticWorkload


class TenantWorkload(SegmentedWorkload):
    """One tenant's checkpoint: ``overlap`` shared + rest tenant-unique.

    Two instances with equal ``(seed, dump_index)`` but different
    ``tenant_index`` produce byte-identical shared segments and disjoint
    unique segments — the exact shape cross-tenant dedup must exploit.
    """

    name = "tenant"

    def __init__(
        self,
        tenant_index: int,
        overlap: float = 0.5,
        chunks_per_rank: int = 32,
        chunk_size: int = 256,
        seed: int = 0,
        dump_index: int = 0,
    ) -> None:
        if not 0.0 <= overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        shared_chunks = round(chunks_per_rank * overlap)
        unique_chunks = chunks_per_rank - shared_chunks
        self.tenant_index = tenant_index
        self.overlap = overlap
        self.chunks_per_rank = chunks_per_rank
        self.chunk_size = chunk_size
        self.seed = seed
        self.dump_index = dump_index
        base = seed * 7919 + dump_index
        self._shared = (
            SyntheticWorkload(
                chunks_per_rank=shared_chunks,
                chunk_size=chunk_size,
                seed=base,
            )
            if shared_chunks
            else None
        )
        self._unique = (
            SyntheticWorkload(
                chunks_per_rank=unique_chunks,
                chunk_size=chunk_size,
                # Large odd salt keeps tenant streams disjoint for any
                # realistic tenant count.
                seed=base + (tenant_index + 1) * 104729,
            )
            if unique_chunks
            else None
        )

    def rank_segments(self, rank: int, n_ranks: int) -> List[Segment]:
        segments: List[Segment] = []
        if self._shared is not None:
            for key, buf in self._shared.rank_segments(rank, n_ranks):
                segments.append(
                    (("shared", key) if key is not None else None, buf)
                )
        if self._unique is not None:
            for key, buf in self._unique.rank_segments(rank, n_ranks):
                segments.append(
                    (
                        ("tenant", self.tenant_index, key)
                        if key is not None
                        else None,
                        buf,
                    )
                )
        return segments

    def per_rank_bytes(self, n_ranks: int, rank: int = 0) -> int:
        # Shared plus unique chunks are ``chunks_per_rank`` whole chunks.
        return self.chunks_per_rank * self.chunk_size
