"""Phase 1 of the two-phase deduplication: per-rank duplicate elimination.

"each process identifies the duplicate chunks of its own dataset and keeps
only one copy, which results in a set of locally unique fingerprints."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.chunking import Dataset
from repro.core.fingerprint import Fingerprint, Fingerprinter, first_occurrences


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


#: Bytes per payload gather: bounds the gathered block (the only temporary
#: of the payload cut) to about 1 MiB.
_BLOCK_BYTES = 1 << 20
#: Fewer first occurrences than this in a segment are cut one slice each:
#: a gather's fixed cost is a few dozen slices.
_GATHER_MIN = 32


def local_dedup_batched(
    dataset: Dataset,
    fingerprinter: Fingerprinter,
    chunk_size: int,
    keep_payloads: bool = True,
    fingerprints: Optional[Sequence[Fingerprint]] = None,
    boundaries: Optional[Sequence[Sequence[int]]] = None,
) -> LocalIndex:
    """Chunk + fingerprint a dataset and collapse local duplicates.

    Columnar: chunks are hashed as ``memoryview`` slices (no ``bytes`` copy
    per chunk; see :meth:`Fingerprinter.fingerprint_segment`), the duplicate
    collapse is one sort over the packed fingerprint column
    (:func:`~repro.core.fingerprint.first_occurrences`), and the first
    occurrences' sizes and payloads are cut per segment: full grid chunks
    through one gather of the segment's rows and ``tolist()``, a short tail
    or a content-defined chunk through its own slice.  Only the locally
    *unique* chunks are ever materialised.  The dicts of the returned
    :class:`LocalIndex` are built by ``dict(zip(...))`` over those columns
    and iterate in first-occurrence order (``tests/core/reference.py``
    holds the naive per-chunk builder this is tested against).

    ``boundaries`` replaces the fixed ``chunk_size`` grid with explicit
    chunk end-offsets, one ascending list per segment ending at the
    segment's length (content-defined chunking:
    :meth:`repro.cdc.chunker.CDCChunker.boundaries`); ``chunk_size`` is then
    only the upper bound the caller promises.  ``keep_payloads=False``
    builds a fingerprints-only index (used by the deterministic global
    simulator, which never moves real chunk bytes).

    ``fingerprints`` is the dataset's fixed-grid fingerprint column, known
    to the caller already (a chain delta's, diffed by the manager): nothing
    is hashed and the caller vouches for it, as the caller of
    :func:`~repro.core.restore.restore_from_manifest` vouches for a
    synthetic manifest; payloads still come from the live dataset views.
    A column whose length is not the grid's chunk count, or one given with
    ``boundaries``, raises ``ValueError``.
    """
    if fingerprints is not None and boundaries is not None:
        raise ValueError(
            "a fingerprint column names fixed-grid chunks; content-defined "
            "boundaries cut others"
        )
    seg_views = [dataset.segment(i) for i in range(dataset.num_segments)]
    seg_lengths = np.asarray(dataset.segment_lengths, dtype=np.int64)
    if boundaries is not None:
        fps = fingerprinter.fingerprint_views(
            [
                view[lo:hi]
                for view, ends in zip(seg_views, boundaries)
                for lo, hi in zip([0, *ends], ends)
            ]
        )
        per_segment = np.asarray([len(ends) for ends in boundaries], dtype=np.int64)
    else:
        per_segment = -(-seg_lengths // chunk_size)  # chunks per segment
        if fingerprints is not None:
            fps = list(fingerprints)
            n_chunks = int(per_segment.sum())
            if len(fps) != n_chunks:
                raise ValueError(
                    f"a column of {len(fps)} fingerprints for a dataset of "
                    f"{n_chunks} chunks of {chunk_size} B"
                )
        else:
            fps = []
            for view in seg_views:
                fps.extend(fingerprinter.fingerprint_segment(view, chunk_size))

    index = LocalIndex()
    index.order = fps
    if not fps:
        return index

    column = np.frombuffer(
        b"".join(fps), dtype=np.dtype((np.void, fingerprinter.digest_size))
    )
    first, counts, _inverse = first_occurrences(column)
    distinct = list(map(fps.__getitem__, first.tolist()))

    # Where each first occurrence lies: its segment and byte range.
    seg_first_row = np.concatenate(([0], np.cumsum(per_segment)))
    segment = np.searchsorted(seg_first_row, first, side="right") - 1
    if boundaries is not None:
        ends = np.fromiter(chain.from_iterable(boundaries), np.int64, len(fps))
        starts = np.concatenate(([0], ends[:-1]))
        starts[seg_first_row[:-1][per_segment > 0]] = 0
        los, his = starts[first], ends[first]
    else:
        los = (first - seg_first_row[segment]) * chunk_size
        his = np.minimum(los + chunk_size, seg_lengths[segment])
    sizes = (his - los).tolist()
    index.counts = dict(zip(distinct, counts.tolist()))
    index.chunk_sizes = dict(zip(distinct, sizes))
    if keep_payloads:
        payloads: List[bytes] = []
        cuts = np.searchsorted(segment, np.arange(len(seg_views) + 1)).tolist()
        lo_list, hi_list = los.tolist(), his.tolist()
        for view, a, b in zip(seg_views, cuts, cuts[1:]):
            if boundaries is None and b - a >= _GATHER_MIN:
                payloads.extend(_gather(view, los[a:b], chunk_size))
            else:  # a few chunks, or content-defined ones: a slice each
                slices = map(slice, lo_list[a:b], hi_list[a:b])
                payloads.extend(map(bytes, map(view.__getitem__, slices)))
        index.unique = dict(zip(distinct, payloads))
    return index


def _gather(view: memoryview, los: np.ndarray, width: int) -> List[bytes]:
    """``bytes`` of the fixed-grid chunks of one segment starting at
    ``los``: whole rows of the segment viewed as ``(n, width)`` voids go
    through one gather and ``tolist()`` per ~1 MiB block, a short tail is
    one slice."""
    whole = len(view) // width
    rows = los[: np.searchsorted(los, whole * width)] // width
    grid = np.frombuffer(view, dtype=np.dtype((np.void, width)), count=whole)
    step = max(1, _BLOCK_BYTES // width)
    out: List[bytes] = []
    for lo in range(0, len(rows), step):
        out.extend(grid[rows[lo : lo + step]].tolist())
    if len(rows) < len(los):
        out.append(bytes(view[whole * width :]))
    return out


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
