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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.fingerprint import Fingerprint
from repro.core.hmerge import GlobalView
from repro.core.local_dedup import LocalIndex


def round_robin_share(extra: int, d: int, j: int) -> int:
    """Number of the ``extra`` copies assigned to designated index ``j`` of
    ``d`` designated ranks under round-robin distribution.

    Copy ``c`` (0-based) goes to designated index ``c % d``; index ``j``
    therefore handles ``ceil((extra - j) / d)`` copies.
    """
    if extra <= 0 or j >= d:
        return 0
    return (extra - j + d - 1) // d


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
        Optional rank -> node mapping (node-aware extension).  When set,
        replication coverage is counted in *distinct nodes*: natural copies
        sharing a node count once, so co-located replicas get topped up.
    topup:
        ``True`` (the paper): missing replicas are filled with full copies
        via the partner slots.  ``False`` (parity redundancy mode): no
        copies are sent; instead the chunks needing protection land in
        ``plan.short_fps`` — attributed to the first designated holder so
        each stripe member is protected exactly once globally.
    alive:
        Degraded mode: per-rank node liveness.  Dead ranks neither store nor
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
    plan.partner_chunks = [[] for _ in range(nparts)]

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

    for fp in fps:
        entry = view.get(fp) if view is not None else None
        if entry is None:
            if self_alive:
                plan.store_fps.append(fp)
            if topup:
                for p in range(max_parts):
                    plan.partner_chunks[p].append(fp)
            else:
                plan.short_fps.append(fp)
            continue
        ranks = entry.ranks
        if degraded:
            live_designated = [r for r in ranks if alive[r]]
            if rank not in ranks:
                if live_designated:
                    plan.discarded_fps.append(fp)
                else:
                    # Every designated holder died: this live natural holder
                    # steps up and re-seeds the chunk as if it were unique.
                    if self_alive:
                        plan.store_fps.append(fp)
                    for p in range(max_parts):
                        plan.partner_chunks[p].append(fp)
                continue
            if self_alive:
                plan.store_fps.append(fp)
            coverage = (
                len({node_of[r] for r in live_designated})
                if node_of is not None
                else len(live_designated)
            )
            if coverage >= k_eff:
                continue
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
                seeder = live_designated[0] if live_designated else ranks[0]
                if rank == seeder:
                    for p in range(max_parts):
                        plan.partner_chunks[p].append(fp)
            elif ranks.index(rank) == 0:
                plan.short_fps.append(fp)
            continue
        d = len(ranks)
        coverage = (
            len({node_of[r] for r in ranks}) if node_of is not None else d
        )
        if rank not in ranks and coverage >= k_eff:
            plan.discarded_fps.append(fp)
            continue
        plan.store_fps.append(fp)
        if coverage >= k_eff or rank not in ranks:
            continue
        j = ranks.index(rank)
        if topup:
            copies = round_robin_share(k_eff - coverage, d, j)
            for p in range(min(copies, nparts)):
                plan.partner_chunks[p].append(fp)
        elif j == 0:
            plan.short_fps.append(fp)
    return plan
