"""The chain node model: one checkpoint epoch in an incremental chain.

A :class:`ChainNode` is the chain-level record of one collective dump —
either a *full* dump (a complete dataset per rank) or a *delta* dump (only
the chunks that changed since the parent epoch, referencing everything else
by digest up the parent chain).  Nodes are value-ish records: the
:class:`~repro.chain.manager.ChainManager` owns mutation (retire on prune,
in-place rewrite on compaction) and the RCH1 codec
(:mod:`repro.storage.chain_codec`) persists them losslessly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence

#: node kinds; a chain always terminates at a ``full`` node
CHAIN_KINDS = ("full", "delta")


@dataclass
class ChainNode:
    """One epoch of an incremental checkpoint chain.

    Per-rank payload layout:

    * ``segment_lengths[rank]`` — the *logical* dataset segment lengths at
      this epoch (full dataset geometry, for deltas too: each epoch records
      its own, so a dataset reshaped since the parent stays a delta).
    * ``positions[rank]`` — for deltas, the flat chunk indices (dataset
      chunk order, chunks never span segments) rewritten by this epoch:
      every index whose fingerprint differs from the parent's, and every
      index past the parent's chunk count; empty for fulls.
    * ``fps[rank]`` — for fulls, every chunk fingerprint in dataset order;
      for deltas, the new fingerprints at ``positions[rank]`` (parallel
      lists).
    """

    epoch: int
    kind: str
    dump_id: int
    parent_epoch: Optional[int] = None
    #: pruned epochs that still anchor live descendants stay as retired
    #: records (their pinned manifests protect inherited chunks); retired
    #: epochs are not restorable
    retired: bool = False
    segment_lengths: List[List[int]] = field(default_factory=list)
    positions: List[List[int]] = field(default_factory=list)
    fps: List[List[bytes]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in CHAIN_KINDS:
            raise ValueError(
                f"chain node kind must be one of {CHAIN_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "full" and self.parent_epoch is not None:
            raise ValueError("full chain nodes have no parent epoch")
        if self.kind == "delta" and self.parent_epoch is None:
            raise ValueError("delta chain nodes need a parent epoch")

    def written_fingerprints(self) -> set:
        """The distinct fingerprints of the column entries this epoch itself
        wrote, as opposed to what it inherits from ancestors."""
        out = set()
        for rank_fps in self.fps:
            out.update(rank_fps)
        return out


def chunk_count(segment_lengths: Sequence[int], chunk_size: int) -> int:
    """Chunks of a dataset of the given segment geometry (chunks never span
    segments, so each segment's tail chunk may be short)."""
    return sum(-(-nbytes // chunk_size) for nbytes in segment_lengths)


def chunk_slices(
    segment_lengths: Sequence[int], chunk_size: int, positions: Optional[Iterable[int]] = None
):
    """Flat chunk index -> ``(segment_index, start, length)`` for a dataset
    of the given segment geometry (chunks never span segments, so the tail
    chunk of each segment may be short): the whole table, or only the rows
    of ``positions`` at a cost that does not depend on the dataset's size."""
    counts = (chunk_count((nbytes,), chunk_size) for nbytes in segment_lengths)
    firsts = list(accumulate(counts, initial=0))  # each segment's first flat index
    out = []
    for p in range(firsts[-1]) if positions is None else positions:
        seg_idx = bisect_right(firsts, p) - 1
        start = (p - firsts[seg_idx]) * chunk_size
        out.append((seg_idx, start, min(chunk_size, segment_lengths[seg_idx] - start)))
    return out
