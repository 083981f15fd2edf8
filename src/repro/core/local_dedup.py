"""Phase 1 of the two-phase deduplication: per-rank duplicate elimination.

"each process identifies the duplicate chunks of its own dataset and keeps
only one copy, which results in a set of locally unique fingerprints."
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.chunking import Dataset, num_chunks
from repro.core.fingerprint import Fingerprint, Fingerprinter


@dataclass
class LocalIndex:
    """Result of local deduplication of one rank's dataset.

    Attributes
    ----------
    order:
        Fingerprint of every chunk in original dataset order (duplicates
        included) — this is the recipe for reassembling the dataset.
    unique:
        First-occurrence chunk payload for each distinct fingerprint, in
        first-occurrence order (Python dicts preserve insertion order).
        May be empty when the index was built fingerprints-only.
    counts:
        Local multiplicity of each distinct fingerprint.
    chunk_sizes:
        Payload length of each distinct fingerprint (needed for byte
        accounting when ``unique`` carries no data).
    """

    order: List[Fingerprint] = field(default_factory=list)
    unique: Dict[Fingerprint, bytes] = field(default_factory=dict)
    counts: Dict[Fingerprint, int] = field(default_factory=dict)
    chunk_sizes: Dict[Fingerprint, int] = field(default_factory=dict)

    @property
    def total_chunks(self) -> int:
        """Chunk count before dedup."""
        return len(self.order)

    @property
    def unique_chunks(self) -> int:
        """Distinct chunk count after local dedup."""
        return len(self.counts)

    @property
    def total_bytes(self) -> int:
        """Dataset bytes before dedup."""
        return sum(self.chunk_sizes[fp] * self.counts[fp] for fp in self.counts)

    @property
    def unique_bytes(self) -> int:
        """Bytes of the locally unique chunks."""
        return sum(self.chunk_sizes.values())

    def unique_fingerprints(self) -> List[Fingerprint]:
        """Distinct fingerprints in first-occurrence order."""
        return list(self.counts.keys())


def local_dedup_batched(
    dataset: Dataset,
    fingerprinter: Fingerprinter,
    chunk_size: int,
    keep_payloads: bool = True,
    cache=None,
    dirty_regions=None,
    boundaries: Optional[Sequence[Sequence[int]]] = None,
) -> LocalIndex:
    """Chunk + fingerprint a dataset and collapse local duplicates.

    Array-backed: chunks are hashed as ``memoryview`` slices (no ``bytes``
    copy per chunk; see :meth:`Fingerprinter.fingerprint_segment`), only the
    locally *unique* chunks are ever materialised as payload bytes, and the
    duplicate collapse runs as one sorted-``np.unique`` over the packed
    fingerprint array.  The dicts of the returned :class:`LocalIndex`
    iterate in first-occurrence order (``tests/core/reference.py`` holds
    the naive per-chunk builder this is tested against).

    ``boundaries`` replaces the fixed ``chunk_size`` grid with explicit
    chunk end-offsets, one ascending list per segment ending at the
    segment's length (content-defined chunking:
    :meth:`repro.cdc.chunker.CDCChunker.boundaries`); ``chunk_size`` is then
    only the upper bound the caller promises.  ``keep_payloads=False``
    builds a fingerprints-only index (used by the deterministic global
    simulator, which never moves real chunk bytes).

    ``cache``/``dirty_regions`` plug in a cross-dump
    :class:`~repro.core.fpcache.FingerprintCache`: clean chunks reuse their
    cached fingerprint and skip hashing entirely (differential-checkpointing
    style); payloads still come from the live dataset views.  The cache is
    keyed by fixed-grid chunk index, so it is not consulted when
    ``boundaries`` are given.
    """
    seg_views = [dataset.segment(i) for i in range(dataset.num_segments)]
    if boundaries is not None:
        views: List[memoryview] = []
        for view, ends in zip(seg_views, boundaries):
            views.extend(view[lo:hi] for lo, hi in zip([0, *ends], ends))
        fps = fingerprinter.fingerprint_views(views)
        chunk_view_at = views.__getitem__
    else:
        if cache is not None:
            fps = cache.fingerprint_dataset(dataset, fingerprinter, dirty_regions)
        else:
            fps = []
            for view in seg_views:
                fps.extend(fingerprinter.fingerprint_segment(view, chunk_size))

        # Chunk-index -> segment resolution for the few first-occurrence
        # payload slices below (duplicates never get materialised, and
        # neither do the non-first copies of unique chunks).
        starts = [0]
        for view in seg_views:
            starts.append(starts[-1] + num_chunks(len(view), chunk_size))

        def chunk_view_at(i: int) -> memoryview:
            s = bisect_right(starts, i) - 1
            offset = (i - starts[s]) * chunk_size
            return seg_views[s][offset : offset + chunk_size]

    index = LocalIndex()
    index.order = fps
    if not fps:
        return index

    digest = fingerprinter.digest_size
    arr = np.frombuffer(b"".join(fps), dtype=np.dtype((np.void, digest)))
    _uniq, first_idx, counts = np.unique(
        arr, return_index=True, return_counts=True
    )
    # np.unique sorts by fingerprint value; re-walk in first-occurrence
    # order so the dicts iterate in dataset order.
    for u in np.argsort(first_idx):
        i = int(first_idx[u])
        fp = fps[i]
        view = chunk_view_at(i)
        index.counts[fp] = int(counts[u])
        index.chunk_sizes[fp] = len(view)
        if keep_payloads:
            index.unique[fp] = bytes(view)
    return index


def index_from_fingerprints(
    fingerprints: List[Fingerprint], chunk_size: int, last_chunk_size: Optional[int] = None
) -> LocalIndex:
    """Build a fingerprints-only :class:`LocalIndex` from a precomputed list.

    Used by workload generators that hash streams without retaining data.
    ``last_chunk_size`` gives the (possibly short) size of the final chunk.
    """
    index = LocalIndex()
    n = len(fingerprints)
    for pos, fp in enumerate(fingerprints):
        size = chunk_size
        if pos == n - 1 and last_chunk_size is not None:
            size = last_chunk_size
        index.order.append(fp)
        count = index.counts.get(fp)
        if count is None:
            index.counts[fp] = 1
            index.chunk_sizes[fp] = size
        else:
            index.counts[fp] = count + 1
            # A duplicate of the tail chunk must have the tail's size; keep
            # the first-seen size (identical fingerprints imply identical
            # payloads, hence identical sizes, for a collision-free hash).
    return index
