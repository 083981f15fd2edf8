"""Controlled-redundancy synthetic workloads.

Gives tests and ablation benches exact dials over every redundancy class
the real applications mix:

* ``frac_global`` — chunks identical on every rank (base-state tables).
* ``frac_group`` — chunks shared within groups of ``group_size`` ranks
  (neighbour-correlated state).
* ``frac_zero``  — the all-zero page, duplicated within *and* across ranks.
* ``frac_local_dup`` — chunks duplicated ``local_dup_degree`` times within
  one rank but unique to it (periodic coefficient patterns).
* remainder      — chunks unique to one rank (solution data).

Content is deterministic in (seed, rank, class), so two runs are
bit-identical and tests can predict exact dedup outcomes.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

from repro.apps.base import Segment, SegmentedWorkload


def _block(tag: bytes, nbytes: int) -> bytes:
    """Deterministic pseudo-random bytes derived from a tag."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out.extend(hashlib.blake2b(tag + counter.to_bytes(8, "little")).digest())
        counter += 1
    return bytes(out[:nbytes])


class SyntheticWorkload(SegmentedWorkload):
    """Per-rank datasets with exactly controlled redundancy structure."""

    name = "synthetic"

    def __init__(
        self,
        chunks_per_rank: int = 256,
        chunk_size: int = 4096,
        frac_global: float = 0.2,
        frac_group: float = 0.0,
        group_size: int = 4,
        frac_zero: float = 0.1,
        frac_local_dup: float = 0.2,
        local_dup_degree: int = 4,
        seed: int = 0,
    ) -> None:
        fractions = (frac_global, frac_group, frac_zero, frac_local_dup)
        if any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
            raise ValueError("class fractions must be >= 0 and sum to <= 1")
        if group_size < 1 or local_dup_degree < 1:
            raise ValueError("group_size and local_dup_degree must be >= 1")
        self.chunks_per_rank = chunks_per_rank
        self.chunk_size = chunk_size
        self.frac_global = frac_global
        self.frac_group = frac_group
        self.group_size = group_size
        self.frac_zero = frac_zero
        self.frac_local_dup = frac_local_dup
        self.local_dup_degree = local_dup_degree
        self.seed = seed

    # -- composition ---------------------------------------------------------
    def class_counts(self) -> dict:
        n = self.chunks_per_rank
        counts = {
            "global": int(n * self.frac_global),
            "group": int(n * self.frac_group),
            "zero": int(n * self.frac_zero),
            "local_dup": int(n * self.frac_local_dup),
        }
        counts["unique"] = n - sum(counts.values())
        return counts

    def rank_segments(self, rank: int, n_ranks: int) -> List[Segment]:
        counts = self.class_counts()
        cs = self.chunk_size
        tag = f"syn{self.seed}".encode()
        segments: List[Segment] = []
        if counts["global"]:
            key = ("syn-global", self.seed, cs, counts["global"])
            segments.append((key, _block(tag + b"|global", counts["global"] * cs)))
        if counts["group"]:
            group = rank // self.group_size
            key = ("syn-group", self.seed, cs, counts["group"], group)
            segments.append(
                (key, _block(tag + b"|group%d" % group, counts["group"] * cs))
            )
        if counts["zero"]:
            key = ("syn-zero", cs, counts["zero"])
            segments.append((key, b"\x00" * (counts["zero"] * cs)))
        if counts["local_dup"]:
            # distinct patterns repeated local_dup_degree times each
            distinct = max(1, counts["local_dup"] // self.local_dup_degree)
            body = bytearray()
            patterns = [
                _block(tag + b"|ldup%d|%d" % (rank, i), cs) for i in range(distinct)
            ]
            for i in range(counts["local_dup"]):
                body.extend(patterns[i % distinct])
            key = ("syn-ldup", self.seed, cs, counts["local_dup"], rank)
            segments.append((key, bytes(body)))
        if counts["unique"]:
            key = ("syn-uniq", self.seed, cs, counts["unique"], rank)
            segments.append(
                (key, _block(tag + b"|uniq%d" % rank, counts["unique"] * cs))
            )
        return segments

    def per_rank_bytes(self, n_ranks: int, rank: int = 0) -> int:
        # Every class is a whole number of chunks and they sum to
        # ``chunks_per_rank``: the size is known without building the bytes.
        return self.chunks_per_rank * self.chunk_size

    # -- analytic expectations (used by exact tests) ---------------------------
    def expected_local_unique_chunks(self) -> int:
        counts = self.class_counts()
        distinct_ldup = (
            max(1, counts["local_dup"] // self.local_dup_degree)
            if counts["local_dup"]
            else 0
        )
        return (
            counts["global"]
            + counts["group"]
            + (1 if counts["zero"] else 0)
            + distinct_ldup
            + counts["unique"]
        )

    def expected_global_distinct_chunks(self, n_ranks: int) -> int:
        counts = self.class_counts()
        n_groups = (n_ranks + self.group_size - 1) // self.group_size
        distinct_ldup = (
            max(1, counts["local_dup"] // self.local_dup_degree)
            if counts["local_dup"]
            else 0
        )
        return (
            counts["global"]
            + counts["group"] * min(n_groups, n_ranks)
            + (1 if counts["zero"] else 0)
            + (distinct_ldup + counts["unique"]) * n_ranks
        )
