"""Cross-dump incremental fingerprint cache (differential-checkpointing style).

Between two checkpoints most HPC applications rewrite only part of their
state — CG iterations touch the solver vectors but not the operator, a
weather model's calm subdomains stay bitwise constant.  Keller & Bautista
Gomez's *Application-Level Differential Checkpointing* observes that the
unchanged part needn't be re-hashed at all.  :class:`FingerprintCache`
implements that for chain deltas: a per-rank cache of chunk fingerprints
per segment, kept parent-side by
:class:`repro.chain.ChainManager` and consulted with a *dirty-region*
description supplied by the application (see
:meth:`repro.apps.base.SegmentedWorkload.dirty_regions`).  The manager
diffs the column it returns and hands the changed fingerprints to the
ranks, so a delta's chunks are hashed once, here.

Safety model: a chunk's cached fingerprint is reused only when

* the cache was built with the same chunk size and hash function,
* the dataset's segment lengths equal those of the previous call (dirty
  ranges name segments by index: after a reshape — a region added,
  dropped or resized — they may point at other bytes, so the dataset is
  hashed whole), and
* the chunk overlaps no declared dirty byte range.

``dirty_regions=None`` (the default for workloads that don't implement the
hook) means "unknown" and falls back to hashing everything, so a missing or
over-conservative hook can only cost time, never correctness.  An
*under*-reporting hook (declaring a changed range clean) is the application
lying about its own writes — the same contract real differential
checkpointing libraries place on their protect/dirty APIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.chunking import Dataset, as_bytes_view
from repro.core.fingerprint import Fingerprint, Fingerprinter

#: Byte ranges ``(start, end)`` (end exclusive) that may have changed since
#: the previous dump, one list per dataset segment.  ``None`` for the whole
#: structure — or a segment entry of ``None`` — means "unknown: hash it all".
DirtyRegions = Optional[Sequence[Optional[Sequence[Tuple[int, int]]]]]


@dataclass
class CacheStats:
    """Accounting of one dump's cache effectiveness."""

    hits: int = 0
    misses: int = 0
    bytes_skipped: int = 0
    bytes_hashed: int = 0


class FingerprintCache:
    """Per-rank incremental fingerprint cache across consecutive dumps.

    One instance belongs to one rank and one (chunk_size, hash_name)
    configuration; passing it to a dump with a different configuration
    clears it (correctness first — stale fingerprints of a different
    geometry must never be reused).
    """

    def __init__(self, chunk_size: int, hash_name: str = "sha1") -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self.hash_name = hash_name
        #: the previous call's segment lengths and per-segment fingerprints
        self._lengths: Optional[List[int]] = None
        self._segments: List[List[Fingerprint]] = []
        self._stats = CacheStats()

    # -- bookkeeping ---------------------------------------------------------
    def __len__(self) -> int:
        return sum(map(len, self._segments))

    def clear(self) -> None:
        self._lengths = None
        self._segments = []

    def ensure_compatible(self, chunk_size: int, hash_name: str) -> None:
        """Re-key the cache for a new configuration, dropping stale entries."""
        if chunk_size != self.chunk_size or hash_name != self.hash_name:
            self.clear()
            self.chunk_size = int(chunk_size)
            self.hash_name = hash_name

    def take_stats(self) -> CacheStats:
        """Stats accumulated since the last call (one dump's worth)."""
        stats, self._stats = self._stats, CacheStats()
        return stats

    # -- the hot path --------------------------------------------------------
    def fingerprint_dataset(
        self,
        dataset: Dataset,
        fingerprinter: Fingerprinter,
        dirty_regions: DirtyRegions = None,
    ) -> List[Fingerprint]:
        """Fingerprints of every chunk of ``dataset``, reusing cached values
        for chunks outside the declared dirty regions.

        Returns the flat fingerprint list in dataset order (the ``order``
        of a :class:`~repro.core.local_dedup.LocalIndex`) and refreshes the
        cache so the *next* dump sees this dataset as the baseline.
        """
        self.ensure_compatible(self.chunk_size, fingerprinter.hash_name)
        lengths = dataset.segment_lengths
        if lengths != self._lengths:
            dirty_regions = None  # cold, or reshaped: hash it whole
        segments: List[List[Fingerprint]] = []
        for seg_idx in range(dataset.num_segments):
            view = as_bytes_view(dataset.segment(seg_idx))
            regions = None
            if dirty_regions is not None and seg_idx < len(dirty_regions):
                regions = dirty_regions[seg_idx]
            segments.append(self._fingerprint_segment(
                seg_idx, view, regions, fingerprinter
            ))
        self._lengths, self._segments = lengths, segments
        return [fp for fps in segments for fp in fps]

    def _fingerprint_segment(
        self,
        seg_idx: int,
        view: memoryview,
        regions: Optional[Sequence[Tuple[int, int]]],
        fingerprinter: Fingerprinter,
    ) -> List[Fingerprint]:
        cs = self.chunk_size
        nbytes = len(view)
        if regions is None:
            # Unknown dirtiness (or no baseline): full hash (the fallback).
            fps = fingerprinter.fingerprint_segment(view, cs)
            self._stats.misses += len(fps)
            self._stats.bytes_hashed += nbytes
            return fps

        dirty = self._dirty_chunks(regions, nbytes, cs)
        fps = list(self._segments[seg_idx])
        for chunk_idx in dirty:
            start = chunk_idx * cs
            chunk = view[start : start + cs]
            fps[chunk_idx] = fingerprinter(chunk)
            self._stats.bytes_hashed += len(chunk)
        n_dirty = len(dirty)
        self._stats.misses += n_dirty
        self._stats.hits += len(fps) - n_dirty
        self._stats.bytes_skipped += nbytes - sum(
            min(cs, nbytes - i * cs) for i in dirty
        )
        return fps

    @staticmethod
    def _dirty_chunks(
        regions: Sequence[Tuple[int, int]], nbytes: int, chunk_size: int
    ) -> List[int]:
        """Sorted chunk indices overlapping any dirty byte range."""
        n_chunks = (nbytes + chunk_size - 1) // chunk_size
        dirty = set()
        for start, end in regions:
            if end <= start:
                continue
            start = max(0, int(start))
            end = min(nbytes, int(end))
            if start >= nbytes:
                continue
            first = start // chunk_size
            last = (end - 1) // chunk_size
            dirty.update(range(first, min(last, n_chunks - 1) + 1))
        return sorted(dirty)
