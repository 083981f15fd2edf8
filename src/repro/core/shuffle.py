"""Algorithm 2: load-aware partner selection based on rank shuffling.

All ranks deterministically compute the same permutation ``Shuffle`` from
the all-gathered send-load matrix; partners of the rank at shuffled
position ``i`` are the ranks at positions ``i+1 .. i+K-1 (mod N)``.
Interleaving heavy senders with light senders balances the *receive* size
(Figure 2: max receive drops from 200 to 110 chunks in the worked example).

Note on fidelity: the paper's pseudocode for RANK_SHUFFLE has a
non-advancing inner loop (``j`` and ``tail`` are never updated); we
implement the evident intent — repeatedly emit the heaviest remaining rank
followed by the ``K-1`` lightest remaining ranks — which reproduces the
paper's Figure 2 outcome.

Placement is against the cluster's rank -> node map (the paper runs 12
ranks per node): a replica on its sender's node does not survive that
node, so the shuffle keeps each partner window on distinct nodes where it
can.  On one rank per node that constraint never binds and the order is
the paper's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def rank_shuffle(
    send_totals: Sequence[int],
    k: int,
    rank_to_node: Optional[Sequence[int]] = None,
) -> List[int]:
    """Compute the shuffled rank order (position -> rank).

    Parameters
    ----------
    send_totals:
        Total number of chunks (or bytes — any consistent unit) each rank
        must send to its partners; index = rank.
    k:
        Replication factor; each head rank is followed by ``k-1`` tail ranks.
    rank_to_node:
        Which node hosts each rank (default: one rank per node).  A replica
        on its sender's node does not survive that node, so each next entry
        prefers a candidate on a node different from the previous ``k-1``
        entries — the ranks whose partner window it joins — draining
        crowded nodes first.  When no such candidate remains (fewer nodes
        than K), the load-preferred one is taken.  With one rank per node
        every remaining candidate is on a fresh node with one rank left, so
        the order is exactly Algorithm 2's head/tail interleaving.

        The choice looks back only: nothing keeps the last ``k-1``
        positions off the nodes of the first ones they wrap around to.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(send_totals)
    if rank_to_node is None:
        rank_to_node = list(range(n))
    if len(rank_to_node) != n:
        raise ValueError("rank_to_node must map every rank")
    # Descending load; ties broken by ascending rank id for determinism.
    order = sorted(range(n), key=lambda r: (-send_totals[r], r))
    remaining_per_node: dict = {}
    for node in rank_to_node:
        remaining_per_node[node] = remaining_per_node.get(node, 0) + 1
    shuffle: List[int] = []

    def take(preference: List[int]) -> None:
        recent = {rank_to_node[r] for r in shuffle[-(k - 1) :]} if k > 1 else set()
        fresh = [c for c in preference if rank_to_node[c] not in recent]
        if fresh:
            pick = max(fresh, key=lambda c: remaining_per_node[rank_to_node[c]])
        else:
            pick = preference[0]
        shuffle.append(pick)
        order.remove(pick)
        remaining_per_node[rank_to_node[pick]] -= 1

    while order:
        take(order)  # heaviest remaining first (head)
        for _ in range(k - 1):
            if not order:
                break
            take(order[::-1])  # lightest remaining (tail)
    return shuffle


def identity_shuffle(n: int) -> List[int]:
    """The naive ordering used by no-dedup/local-dedup and coll-no-shuffle."""
    return list(range(n))


def inverse_positions(shuffle: Sequence[int]) -> List[int]:
    """rank -> shuffled position (inverse permutation)."""
    positions = [0] * len(shuffle)
    for pos, rank in enumerate(shuffle):
        positions[rank] = pos
    return positions


def partners_of(
    position: int,
    shuffle: Sequence[int],
    k: int,
    alive: Optional[Sequence[bool]] = None,
) -> List[int]:
    """Replication partners of the rank at ``position`` in shuffled order:
    its nearest *live* successors, up to ``min(k, N) - 1`` of them.

    With every node alive (``alive=None``) these are the ranks at positions
    ``position+1 .. position+k-1`` (mod N).  In a degraded dump replicas on
    dead nodes protect nothing, so dead ranks are skipped outright — the
    successor walk simply reaches further.  Ranks whose own node is dead
    still get a partner list: their storage failed but their process holds
    the data, and shipping it to live partners is the only way that data
    survives the dump at all.
    """
    n = len(shuffle)
    want = min(k, n) - 1
    partners: List[int] = []
    for step in range(1, n):
        if len(partners) >= want:
            break
        candidate = shuffle[(position + step) % n]
        if alive is None or alive[candidate]:
            partners.append(candidate)
    return partners
