"""Per-rank replication planning (Algorithm 1, lines 4-12).

Given the global view, each rank derives — with no further communication —
exactly which chunks it stores, discards, and sends to which partner slot:

* fingerprint in the view, rank **not** designated, K designated: *discard*
  — K other ranks already cover it ("it can be safely discarded as the
  desired replication factor was reached").  With fewer than K designated
  (a view truncated to F entries per rank can miss some of a chunk's
  holders) the condition does not hold: store locally, send nothing.
* fingerprint in the view, rank designated, D = len(designated) >= K:
  store locally, send nothing (enough natural replicas).
* fingerprint in the view, rank designated, D < K: store locally and top
  up ``K - D`` replicas, distributed round-robin over the D designated
  ranks; the copies assigned to this rank go to its partner slots 1..P.
* fingerprint not in the view: treated as unique — store locally and send
  to all K-1 partners.

The rules run as masks over the rows of one ``GlobalView.rows`` lookup;
``tests/core/reference.py`` keeps the per-fingerprint loop they replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.hmerge import PAD, GlobalView
from repro.core.local_dedup import LocalIndex


def round_robin_share(extra, d, j):
    """Number of the ``extra`` copies assigned to designated index ``j`` of
    ``d`` designated ranks under round-robin distribution (element-wise
    over arrays).

    Copy ``c`` (0-based) goes to designated index ``c % d``; index ``j``
    therefore handles ``ceil((extra - j) / d)`` copies.
    """
    share = (extra - j + d - 1) // np.maximum(d, 1)
    return np.where((extra > 0) & (j < d), share, 0)


def _distinct_nodes(ranks: np.ndarray, mask: np.ndarray, node_of) -> np.ndarray:
    """Per row, the number of distinct nodes among the ranks under ``mask``."""
    none = np.iinfo(np.int64).max
    nodes = np.asarray(node_of, dtype=np.int64)[np.where(mask, ranks, 0)]
    nodes = np.sort(np.where(mask, nodes, none), axis=1)
    fresh = (nodes[:, 1:] != nodes[:, :-1]) & (nodes[:, 1:] != none)
    return (nodes[:, 0] != none) + fresh.sum(axis=1)


@dataclass
class ReplicationPlan:
    """One rank's complete send/store decision for a dump.

    ``partner_chunks[p]`` (0-based list index = partner distance p+1) holds
    the fingerprints to put into that partner's window, in deterministic
    (local first-occurrence) order — both sides of the exchange rely on
    this order being reproducible.
    """

    rank: int
    k: int
    store_fps: List[Fingerprint] = field(default_factory=list)
    partner_chunks: List[List[Fingerprint]] = field(default_factory=list)
    discarded_fps: List[Fingerprint] = field(default_factory=list)
    #: parity mode: chunks this rank must protect (would-be top-ups),
    #: attributed once globally (to the first designated holder).
    short_fps: List[Fingerprint] = field(default_factory=list)

    @property
    def load(self) -> List[int]:
        """The paper's ``Load`` vector: [local store, partner 1, ..., K-1]."""
        vec = [len(self.store_fps)]
        vec.extend(len(chunks) for chunks in self.partner_chunks)
        while len(vec) < self.k:
            vec.append(0)
        return vec

    @property
    def send_total(self) -> int:
        """Total chunks this rank sends to partners."""
        return sum(len(chunks) for chunks in self.partner_chunks)

    def send_bytes(self, chunk_sizes: Dict[Fingerprint, int]) -> int:
        return sum(
            chunk_sizes[fp] for chunks in self.partner_chunks for fp in chunks
        )

    def store_bytes(self, chunk_sizes: Dict[Fingerprint, int]) -> int:
        return sum(chunk_sizes[fp] for fp in self.store_fps)


def build_plan(
    rank: int,
    local_index: LocalIndex,
    view: Optional[GlobalView],
    k: int,
    world_size: int,
    dedup_local: bool = True,
    node_of=None,
    topup: bool = True,
    alive: Optional[Sequence[bool]] = None,
) -> ReplicationPlan:
    """Build the replication plan for one rank under any strategy.

    Parameters
    ----------
    view:
        The global view for coll-dedup, or ``None`` for the two baseline
        strategies (every chunk treated as globally unique).
    dedup_local:
        ``False`` reproduces no-dedup: every chunk occurrence (duplicates
        included) is stored and replicated.
    node_of:
        The cluster's rank -> node map (``None``: one rank per node).
        Replication coverage is counted in *distinct nodes*: natural copies
        sharing a node count once, so co-located replicas get topped up.
    topup:
        ``True`` (the paper): missing replicas are filled with full copies
        via the partner slots.  ``False`` (parity redundancy mode): no
        copies are sent; instead the chunks needing protection land in
        ``plan.short_fps`` — attributed to the first designated holder so
        each stripe member is protected exactly once globally.
    alive:
        The dump's liveness snapshot, per rank.  Dead ranks neither store nor
        count toward coverage — designations they hold are effectively
        reassigned: coverage is recounted over *live* designated ranks, the
        resulting shortfall is topped up round-robin over the full
        designated list (dead members still *send* — their process holds
        the data even though their store is gone), and a live natural
        holder whose designated list died entirely steps up as if the chunk
        were unique.  ``None`` or all-True is exactly the healthy plan.
        Unlike the healthy plan, an undesignated holder here discards on
        *any* live designated holder, however few: the single seeder ships
        a short chunk to every live partner slot and reaches ``min(K,
        live)`` by itself, which healthy round-robin top-ups (aimed by
        position, possibly at another holder) do not.
    """
    k_eff = min(k, world_size)
    nparts = k_eff - 1
    plan = ReplicationPlan(rank=rank, k=k_eff)

    degraded = alive is not None and not all(alive)
    if degraded:
        n_live = sum(1 for a in alive if a)
        self_alive = bool(alive[rank])
        # Cannot ship more copies than there are live partners to take them.
        max_parts = min(nparts, n_live - (1 if self_alive else 0))
    else:
        self_alive = True
        max_parts = nparts

    if dedup_local:
        fps = local_index.unique_fingerprints()
    else:
        # no-dedup: chunk stream as-is, duplicates and all.
        fps = list(local_index.order)

    # Per fingerprint: discarded, a parity-mode short, and the number of
    # partner slots (1..copies) it goes to.  Out of the view it is unique.
    rows = view.rows(fps) if view is not None else np.full(len(fps), -1)
    seen = np.nonzero(rows >= 0)[0]
    discard = np.zeros(len(fps), dtype=bool)
    short = (rows < 0) & (not topup)
    copies = np.where(rows < 0, max_parts if topup else 0, 0)
    if len(seen):
        ranks = view.ranks[rows[seen]]
        listed = ranks != PAD
        cell = ranks == rank
        member = cell.any(axis=1)
        j = cell.argmax(axis=1)  # valid ranks sort first: the tuple index
        if degraded:
            live = listed & np.asarray(alive, dtype=bool)[np.where(listed, ranks, 0)]
            any_live = live.any(axis=1)
        else:
            live = listed
        coverage = (
            live.sum(axis=1) if node_of is None
            else _distinct_nodes(ranks, live, node_of)
        )
        topped = member & (coverage < k_eff)
        if degraded:
            discard[seen] = ~member & any_live
            # Every designated holder died: a live natural holder steps up
            # and re-seeds the chunk as if it were unique.
            seed = ~member & ~any_live
            if topup:
                # Plans are built before the shuffle exists, so no sender can
                # aim a top-up at a node known not to hold the chunk — a
                # round-robin copy from one member can land on another member
                # via the partner walk and silently collapse into an existing
                # replica (under-replication found by the scenario fuzzer).
                # Instead one seeder — the first live designated holder, or
                # the first designated holder when none survive — ships the
                # chunk to *every* live partner slot: at most D-1 of those
                # recipients already hold it, so distinct live replicas reach
                # min(K, live) no matter how the shuffle lands.  Costs up to
                # D-1 redundant copies per short chunk, degraded dumps only.
                seeder = np.where(any_live, live.argmax(axis=1), 0)
                seed |= topped & (j == seeder)
            copies[seen] = np.where(seed, max_parts, 0)
        else:
            discard[seen] = ~member & (coverage >= k_eff)
            if topup:
                share = round_robin_share(k_eff - coverage, listed.sum(axis=1), j)
                copies[seen] = np.where(topped, share, 0)
        if not topup:
            short[seen] = topped & (j == 0)

    plan.store_fps = list(compress(fps, (~discard & self_alive).tolist()))
    plan.discarded_fps = list(compress(fps, discard.tolist()))
    plan.short_fps = list(compress(fps, short.tolist()))
    plan.partner_chunks = [
        list(compress(fps, (copies > p).tolist())) for p in range(nparts)
    ]
    return plan
