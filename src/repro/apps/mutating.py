"""A workload that evolves over epochs — the chain layer's driver.

:class:`MutatingWorkload` models an application between checkpoints: a
deterministic base state plus, per epoch, a small random set of rewritten
chunks.  The content at epoch ``T`` is the base with the cumulative
mutations of epochs ``1..T`` applied (later epochs win), so every epoch's
full state is reconstructible from ``(seed, T)`` alone — the dst chain
scenarios use exactly that as the byte-level oracle for time-travel
restores.

:meth:`dirty_regions` reports precisely the chunks the *current* epoch
rewrote, honouring the fingerprint-cache contract (declaring a written
range clean is a correctness bug; this workload tracks its writes
exactly).  Geometry never changes across epochs.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, Tuple

from repro.apps.base import Segment, SegmentedWorkload
from repro.chain.node import chunk_slices


def _block(tag: bytes, nbytes: int) -> bytes:
    """Deterministic pseudo-random bytes derived from a tag."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out.extend(hashlib.blake2b(tag + counter.to_bytes(8, "little")).digest())
        counter += 1
    return bytes(out[:nbytes])


class MutatingWorkload(SegmentedWorkload):
    """Epoch-evolving per-rank state with exact dirty tracking.

    A dataset it hands out is read-only views of the application's live
    memory, not a copy: it is valid until the next :meth:`advance` is
    materialised (by a later ``rank_segments`` / ``build_dataset`` of that
    rank), which rewrites those bytes in place; ``to_bytes()`` outlives it.

    Parameters
    ----------
    seed:
        Derives all content; same seed + same epoch = same bytes.
    segment_lengths:
        Per-rank segment geometry (every rank identical; constant across
        epochs).  The default mixes chunk-aligned and short-tail segments.
    chunk_size:
        Mutation granularity — epochs rewrite whole chunks, so a dump
        config with the same chunk size sees exactly the declared chunks
        change.  Must match the chain's ``DumpConfig.chunk_size``.
    dirty_frac:
        Fraction of each rank's chunks rewritten per epoch (at least one).
    shared_base:
        When True (default), segment 0's base content is identical on all
        ranks — the paper's naturally distributed redundancy — so epoch
        0's full dump dedups across ranks.  Mutations are always per-rank
        and diverge it over time.
    """

    name = "mutating"

    def __init__(
        self,
        seed: int = 0,
        segment_lengths: Sequence[int] = (4096 * 4, 4096 * 2 + 1000, 4096 // 2),
        chunk_size: int = 4096,
        dirty_frac: float = 0.05,
        shared_base: bool = True,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if not 0.0 < dirty_frac <= 1.0:
            raise ValueError(f"dirty_frac must be in (0, 1], got {dirty_frac}")
        self.seed = int(seed)
        self.segment_lengths = [int(n) for n in segment_lengths]
        self.chunk_size = int(chunk_size)
        self.dirty_frac = float(dirty_frac)
        self.shared_base = shared_base
        self.epoch = 0
        self._slices = chunk_slices(self.segment_lengths, self.chunk_size)
        #: rank -> (epoch, materialized segments); like a real application
        #: the state lives in memory and advance() mutates it in place, so
        #: a warm dump reads the current bytes instead of replaying every
        #: epoch's mutations from the base
        self._states: dict = {}

    # -- epoch control ----------------------------------------------------------
    def advance(self, epochs: int = 1) -> int:
        """Apply ``epochs`` more rounds of mutations; returns the new epoch."""
        if epochs < 0:
            raise ValueError("cannot advance by a negative epoch count")
        self.epoch += epochs
        return self.epoch

    def at_epoch(self, epoch: int) -> "MutatingWorkload":
        """An independent view of the same workload pinned at ``epoch`` —
        the oracle for time-travel restores."""
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        view = MutatingWorkload(
            seed=self.seed,
            segment_lengths=self.segment_lengths,
            chunk_size=self.chunk_size,
            dirty_frac=self.dirty_frac,
            shared_base=self.shared_base,
        )
        view.epoch = epoch
        return view

    # -- content ----------------------------------------------------------------
    def _mutated_indices(self, rank: int, epoch: int) -> List[int]:
        """Flat chunk indices epoch ``epoch`` rewrote on ``rank``."""
        n_chunks = len(self._slices)
        k = max(1, int(n_chunks * self.dirty_frac))
        rng = random.Random(f"mut:{self.seed}:{rank}:{epoch}")
        return sorted(rng.sample(range(n_chunks), min(k, n_chunks)))

    def rank_segments(self, rank: int, n_ranks: int) -> List[Segment]:
        cached = self._states.get(rank)
        if cached is None or cached[0] > self.epoch:
            segments: List[bytearray] = []
            for seg_idx, nbytes in enumerate(self.segment_lengths):
                if self.shared_base and seg_idx == 0:
                    tag = b"chain-base:%d:shared:%d" % (self.seed, seg_idx)
                else:
                    tag = b"chain-base:%d:%d:%d" % (self.seed, rank, seg_idx)
                segments.append(bytearray(_block(tag, nbytes)))
            from_epoch = 1
        else:
            from_epoch, segments = cached[0] + 1, cached[1]
        for epoch in range(from_epoch, self.epoch + 1):
            for index in self._mutated_indices(rank, epoch):
                seg_idx, start, length = self._slices[index]
                tag = b"chain-mut:%d:%d:%d:%d" % (
                    self.seed, rank, epoch, index,
                )
                segments[seg_idx][start:start + length] = _block(tag, length)
        self._states[rank] = (self.epoch, segments)
        keys = []
        for seg_idx in range(len(segments)):
            if self.shared_base and seg_idx == 0 and self.epoch == 0:
                keys.append(("chain-shared", self.seed, seg_idx))
            else:
                keys.append(None)
        return [(key, memoryview(seg).toreadonly()) for key, seg in zip(keys, segments)]

    def per_rank_bytes(self, n_ranks: int, rank: int = 0) -> int:
        return sum(self.segment_lengths)

    def dirty_regions(
        self, rank: int, n_ranks: int
    ) -> Optional[List[Optional[List[Tuple[int, int]]]]]:
        """Exactly the chunks the current epoch rewrote (``None`` at epoch
        0: first checkpoint, no baseline to be dirty against)."""
        if self.epoch == 0:
            return None
        regions: List[Optional[List[Tuple[int, int]]]] = [
            [] for _ in self.segment_lengths
        ]
        for index in self._mutated_indices(rank, self.epoch):
            seg_idx, start, length = self._slices[index]
            regions[seg_idx].append((start, start + length))
        return regions
