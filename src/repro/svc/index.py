"""Service-wide fingerprint index: who references which chunk.

The cluster's node stores already dedup payloads; what they cannot answer
is *which tenants* reference a fingerprint — the information the service
needs for fair accounting and for garbage collection that never drops a
chunk another tenant still references.  This index tracks, per
fingerprint: stored payload size, the first tenant to write it, and a
per-tenant reference count (one reference per manifest occurrence set of
one dump).

Like the chunk stores it is sharded by fingerprint prefix (Khan et al.'s
shared-nothing index layout) with a lock per shard, so concurrent dump
completions only contend within a prefix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.fingerprint import Fingerprint


@dataclass
class ChunkEntry:
    """Index record for one fingerprint."""

    size: int
    first_writer: str
    #: tenant -> live dump references
    refs: Dict[str, int] = field(default_factory=dict)

    @property
    def total_refs(self) -> int:
        return sum(self.refs.values())

    @property
    def tenants(self) -> List[str]:
        return sorted(t for t, n in self.refs.items() if n > 0)


class GlobalDedupIndex:
    """Sharded fingerprint -> :class:`ChunkEntry` map."""

    def __init__(self, shard_count: int = 8) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        self._shards: List[Dict[Fingerprint, ChunkEntry]] = [
            {} for _ in range(shard_count)
        ]
        self._locks = [threading.Lock() for _ in range(shard_count)]
        # Running totals behind `unique_bytes` / `referenced_bytes`, one per
        # shard so that each is updated under its shard's lock.
        self._unique_bytes = [0] * shard_count
        self._referenced: List[Dict[str, int]] = [{} for _ in range(shard_count)]

    def _shard(self, fp: Fingerprint) -> int:
        return fp[0] % self.shard_count

    def record(self, tenant: str, fp: Fingerprint, size: int) -> bool:
        """Add one reference by ``tenant``; True if the chunk is new to the
        whole service (this tenant is its first writer)."""
        added = self._record_shard(self._shard(fp), tenant, (fp,), lambda _new: (size,))
        return added[0] == 1

    def record_many(
        self, tenant: str, fps: Collection[Fingerprint],
        size_of: Callable[[List[Fingerprint]], Sequence[int]],
    ) -> Tuple[int, int, int]:
        """One reference by ``tenant`` to each of ``fps``, as a :meth:`record`
        loop over ``sorted(fps)`` leaves the index, with each shard's lock
        taken once.  ``size_of`` maps a list of fingerprints to their stored
        sizes and is asked only about those new to the index, each once (a
        known entry keeps its size, unless that is the 0 of "no node stored
        it": then it is asked about again).  New entries enter their shard
        in ascending order whatever order ``fps`` iterates in, so no view
        that walks :meth:`items` depends on it.  Returns ``(new chunks, their
        bytes, known chunks the tenant did not reference before)``; a
        repeated fingerprint raises ``ValueError`` before anything is recorded.
        """
        if not isinstance(fps, (set, frozenset)) and len(set(fps)) != len(fps):
            raise ValueError("record_many: a fingerprint is repeated in one call")
        groups: List[List[Fingerprint]] = [[] for _ in self._shards]
        for fp in fps:
            groups[fp[0] % self.shard_count].append(fp)
        parts = [self._record_shard(i, tenant, group, size_of) for i, group in enumerate(groups)]
        return tuple(map(sum, zip(*parts)))  # an empty group adds (0, 0, 0)

    def _record_shard(self, i: int, tenant: str, fps, size_of) -> Tuple[int, int, int]:
        """:meth:`record_many` for distinct ``fps`` that all live in shard ``i``."""
        shard = self._shards[i]
        new: List[Fingerprint] = []
        gained = cross_hits = 0
        with self._locks[i]:
            for fp in fps:
                entry = shard.get(fp)
                if entry is None or not entry.size:
                    new.append(fp)
                    continue
                have = entry.refs.get(tenant, 0)
                if not have:
                    gained += entry.size
                    cross_hits += 1
                entry.refs[tenant] = have + 1
            new.sort()
            sizes = size_of(new) if new else ()
            referenced = self._referenced[i]
            for fp, size in zip(new, sizes):
                entry = shard.get(fp)
                if entry is None:
                    shard[fp] = ChunkEntry(size, tenant, {tenant: 1})
                    continue
                # Size 0: recorded while no node stored it (a degraded dump
                # lost the rank that wrote it).  Its holders pay from now on.
                entry.size = size
                for other in entry.refs:
                    if other != tenant:
                        referenced[other] += size
                entry.refs[tenant] = entry.refs.get(tenant, 0) + 1
            new_bytes = sum(sizes)
            self._unique_bytes[i] += new_bytes
            referenced[tenant] = referenced.get(tenant, 0) + gained + new_bytes
        return len(new), new_bytes, cross_hits

    def release(self, tenant: str, fp: Fingerprint) -> Tuple[int, bool]:
        """Drop one of ``tenant``'s references.

        Returns ``(remaining_total_refs, other_tenant_still_refs)``; the
        entry is removed entirely when no references remain, which is the
        caller's signal that the payload may be physically discarded.
        """
        i = self._shard(fp)
        with self._locks[i]:
            entry = self._shards[i].get(fp)
            if entry is None:
                return (0, False)
            have = entry.refs.get(tenant, 0)
            if have <= 1:
                entry.refs.pop(tenant, None)
                if have:
                    self._referenced[i][tenant] -= entry.size
            else:
                entry.refs[tenant] = have - 1
            remaining = entry.total_refs
            others = any(
                n > 0 for t, n in entry.refs.items() if t != tenant
            )
            if remaining == 0:
                del self._shards[i][fp]
                self._unique_bytes[i] -= entry.size
            return (remaining, others)

    def get(self, fp: Fingerprint) -> ChunkEntry:
        return self._shards[self._shard(fp)][fp]

    def has(self, fp: Fingerprint) -> bool:
        return fp in self._shards[self._shard(fp)]

    def items(self) -> Iterator[Tuple[Fingerprint, ChunkEntry]]:
        for shard in self._shards:
            yield from shard.items()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # -- accounting views --------------------------------------------------------
    # `unique_bytes` and `referenced_bytes` are read after every request, so
    # `record` / `release` keep them as running totals; the other views walk
    # the index.
    @property
    def unique_bytes(self) -> int:
        """Bytes the service stores once, regardless of sharing."""
        return sum(self._unique_bytes)

    def referenced_bytes(self, tenant: str) -> int:
        """Unique bytes ``tenant`` references (its dedup'd footprint)."""
        return sum(shard.get(tenant, 0) for shard in self._referenced)

    def shared_bytes(self, tenant: str) -> int:
        """Bytes ``tenant`` references that at least one other tenant also
        references — the cross-tenant savings this tenant participates in."""
        return sum(
            entry.size
            for _fp, entry in self.items()
            if entry.refs.get(tenant, 0) > 0 and len(entry.tenants) > 1
        )

    @property
    def cross_tenant_shared_bytes(self) -> int:
        """Unique bytes referenced by two or more tenants."""
        return sum(
            entry.size
            for _fp, entry in self.items()
            if len(entry.tenants) > 1
        )

    def charged_bytes(
        self, tenants: Iterable[str], policy: str = "first-writer"
    ) -> Dict[str, float]:
        """Attribute each chunk's size to tenants under ``policy``.

        ``first-writer`` charges the whole size to whoever wrote the chunk
        first (later sharers ride free); ``split`` divides it evenly among
        current sharers.  Either way the charges sum to the service's
        unique bytes, so the bill always covers the device.
        """
        if policy not in ("first-writer", "split"):
            raise ValueError(
                f"unknown attribution policy {policy!r}; "
                "expected 'first-writer' or 'split'"
            )
        charged: Dict[str, float] = {t: 0.0 for t in tenants}
        for _fp, entry in self.items():
            sharers = entry.tenants
            if not sharers:
                continue
            if policy == "first-writer":
                # The first writer may have GC'd its reference away; the
                # bill then falls to the earliest-sorted current sharer.
                payer = (
                    entry.first_writer
                    if entry.first_writer in sharers
                    else sharers[0]
                )
                charged[payer] = charged.get(payer, 0.0) + entry.size
            else:
                share = entry.size / len(sharers)
                for t in sharers:
                    charged[t] = charged.get(t, 0.0) + share
        return charged
