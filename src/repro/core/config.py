"""Configuration of the ``DUMP_OUTPUT`` collective."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

DEFAULT_CHUNK_SIZE = 4096  # the system memory page size used by the paper
DEFAULT_F_THRESHOLD = 1 << 17  # the paper's fingerprint-count cap (Sec. V-C)


class Strategy(enum.Enum):
    """The three replication strategies compared throughout the paper.

    * ``NO_DEDUP`` — full replication of every chunk to K-1 partners
      ("no-dedup" in the evaluation).
    * ``LOCAL_DEDUP`` — per-rank dedup first, then full replication of the
      locally unique chunks ("local-dedup").
    * ``COLL_DEDUP`` — the paper's contribution: collective inter-process
      dedup; naturally duplicated chunks count toward the replication
      factor ("coll-dedup").
    """

    NO_DEDUP = "no-dedup"
    LOCAL_DEDUP = "local-dedup"
    COLL_DEDUP = "coll-dedup"

    @classmethod
    def parse(cls, value) -> "Strategy":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value or member.name == value:
                return member
        raise ValueError(
            f"unknown strategy {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class DumpConfig:
    """Parameters of one collective dump.

    The world that runs the dump is not part of it: every driver that
    spawns one (``run_collective``, ``repair_cluster``,
    :class:`~repro.chain.ChainManager`, the service, the CLI) takes
    ``backend=`` / ``timeout=`` and defaults to ``REPRO_SPMD_BACKEND`` /
    ``REPRO_SPMD_TIMEOUT``.

    Parameters
    ----------
    replication_factor:
        The paper's ``K``: total number of copies each chunk must have
        (1 local + K-1 remote).  ``K = 1`` means local-only storage.
    chunk_size:
        Fixed chunk size in bytes (paper: 4 KB memory pages).
    f_threshold:
        The paper's ``F``: at most this many fingerprints survive each merge
        of the collective reduction; the rest are treated as unique.
    hash_name:
        Fingerprint function (``sha1`` as in the paper; ``blake2b`` and
        ``md5`` supported for the speed/collision trade-off noted in Sec. IV).
        ``"xx128"`` is the vectorised non-crypto kernel (see
        :mod:`repro.core.fingerprint`), which batch-hashes whole segments
        with numpy; dedup/restore semantics are unchanged, but keep a
        cryptographic hash wherever fingerprints double as verification.
    strategy:
        Which of the three evaluated strategies to run.
    shuffle:
        Enable Algorithm 2's load-aware partner selection (the paper's
        ``coll-shuffle`` vs ``coll-no-shuffle`` ablation).  Ignored by the
        two baseline strategies, which the paper defines with naive
        ``i+1..i+K-1`` partner selection.  Where several ranks share a node
        there is no switch: designation, top-up counting and the shuffle
        always work on the cluster's ``rank_to_node`` map, so a replica
        lands off its sender's node where one can.
    chunking:
        ``"fixed"`` (the paper: chunks = memory pages of ``chunk_size``) or
        ``"cdc"`` — content-defined boundaries with ``chunk_size`` as the
        maximum chunk size (extension; see :mod:`repro.cdc`).  CDC makes the
        dedup robust to byte-shifted data at the cost of chunking CPU.
    compress:
        Optional per-chunk codec name (see
        :func:`repro.compress.available_codecs`) applied *after* dedup and
        before the wire/storage — the "compression or deduplication"
        combination the paper's introduction contrasts.  Fingerprints stay
        those of the uncompressed chunks, so dedup semantics are unchanged.
        Threaded path only (the fingerprints-only simulator cannot know
        compressed sizes).
    """

    replication_factor: int = 3
    chunk_size: int = DEFAULT_CHUNK_SIZE
    f_threshold: int = DEFAULT_F_THRESHOLD
    hash_name: str = "sha1"
    strategy: Strategy = Strategy.COLL_DEDUP
    shuffle: bool = True
    chunking: str = "fixed"
    compress: Optional[str] = None
    #: "replication" (the paper) or "parity" (§VI extension): chunks without
    #: natural replicas are protected with RS(d + K-1, d) stripes shipped to
    #: the K-1 partners instead of K-1 full copies.  coll-dedup + threaded
    #: path only; lost chunks are decoded at restore.
    redundancy: str = "replication"
    #: RS data shards per stripe in parity mode (m is always K-1).
    stripe_data: int = 8
    #: Optional dedup-domain size: the fingerprint reduction runs within
    #: groups of this many consecutive ranks instead of globally.  Bounds
    #: the reduction's table spread and round count (log2(domain) rounds)
    #: at the cost of missing cross-domain duplicates — an alternative
    #: complexity bound to the F threshold (ablation bench X10).
    #: Replication partners remain global.
    dedup_domain_size: Optional[int] = None
    #: Observability level for the dump: ``"phase"`` (counters only, the
    #: default) or ``"span"`` (additionally record hierarchical timestamped
    #: spans and metrics — see :mod:`repro.obs`).  ``None`` defers to
    #: ``REPRO_TRACE``, then leaves the rank's trace untouched.
    trace_level: Optional[str] = None
    #: Pipelined dump: process the exchange + write phases (and, under
    #: no-dedup, the hash phase too) as a double-buffered pipeline over
    #: chunk batches instead of strict barriers, so a rank's store writes
    #: overlap its partners' hashing/exchange.  Results are byte-identical
    #: to the strict path; dumps the pipeline cannot express (parity
    #: redundancy, a dead node in the liveness snapshot) silently fall back
    #: to strict phases.
    pipelined: bool = False
    #: Chain-delta dump (see :mod:`repro.chain`): the datasets being dumped
    #: are one epoch's *dirty chunks only*, so the written manifests carry
    #: the delta flag and are not independently restorable —
    #: :func:`repro.core.restore.restore_dataset` refuses them with a typed
    #: ``ChainBrokenError``.  Set by :class:`repro.chain.ChainManager`;
    #: dedup/replication semantics are otherwise unchanged.
    chain_delta: bool = False

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.f_threshold < 1:
            raise ValueError(f"f_threshold must be >= 1, got {self.f_threshold}")
        if self.chunking not in ("fixed", "cdc"):
            raise ValueError(
                f"chunking must be 'fixed' or 'cdc', got {self.chunking!r}"
            )
        if self.chunking == "cdc" and self.chunk_size < 64:
            raise ValueError("cdc chunking needs chunk_size >= 64")
        if self.compress is not None:
            from repro.compress.codecs import get_codec

            get_codec(self.compress)  # raises on unknown names
        if self.redundancy not in ("replication", "parity"):
            raise ValueError(
                f"redundancy must be 'replication' or 'parity', "
                f"got {self.redundancy!r}"
            )
        if self.stripe_data < 1:
            raise ValueError(f"stripe_data must be >= 1, got {self.stripe_data}")
        if self.dedup_domain_size is not None and self.dedup_domain_size < 1:
            raise ValueError(
                f"dedup_domain_size must be >= 1, got {self.dedup_domain_size}"
            )
        if self.trace_level is not None:
            from repro.simmpi.trace import TRACE_LEVELS

            if self.trace_level not in TRACE_LEVELS:
                raise ValueError(
                    f"trace_level must be one of {TRACE_LEVELS}, "
                    f"got {self.trace_level!r}"
                )
        object.__setattr__(self, "strategy", Strategy.parse(self.strategy))
        if self.redundancy == "parity" and self.strategy is not Strategy.COLL_DEDUP:
            raise ValueError("parity redundancy requires the coll-dedup strategy")

    @property
    def effective_hash_name(self) -> str:
        """The fingerprint algorithm the dump runs: ``hash_name``."""
        return self.hash_name

    @property
    def wire_payload_capacity(self) -> int:
        """Max payload bytes of one window slot (compressed frames carry a
        1-byte codec marker and may exceed the raw size by exactly it)."""
        return self.chunk_size + (1 if self.compress is not None else 0)

    def make_chunker(self):
        """The content-defined chunker ``chunking="cdc"`` cuts segments
        with: ``chunk_size`` is the maximum chunk size, the average is the
        largest power of two not above half of it."""
        from repro.cdc.chunker import CDCChunker, CDCParams

        avg = 1 << max(6, (self.chunk_size // 2).bit_length() - 1)
        return CDCChunker(
            CDCParams(
                min_size=max(1, avg // 4),
                avg_size=min(avg, self.chunk_size),
                max_size=self.chunk_size,
            )
        )

    def with_(self, **changes) -> "DumpConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def resolve_trace_level(self) -> Optional[str]:
        """Effective trace level: explicit config wins, else ``$REPRO_TRACE``,
        else ``None`` (leave the rank's trace as configured)."""
        from repro.simmpi.trace import resolve_trace_level

        return resolve_trace_level(self.trace_level)

    def effective_k(self, world_size: int) -> int:
        """K capped at the world size (cannot place more copies than ranks)."""
        return min(self.replication_factor, world_size)
