"""Algorithm 3: single-sided communication planning.

Every rank must put its chunks into each partner's one-sided window at an
offset all senders agree on *without extra communication*.  The trick (Sec.
III-B) is that the send-load matrix gathered for partner selection already
tells every rank how much each other rank sends to each of its partners, so
the receive layout of every window is globally computable:

    window of the rank at shuffled position t:
      [ chunks from distance-1 sender | distance-2 sender | ... ]

with the distance-j sender being shuffled position ``t-j`` contributing
``SendLoad[shuffle[t-j]][j]`` chunks.  The paper's Algorithm 3 accumulates
exactly these prefix sums ("rank i uses offset 0 for its partner i+1,
offset j for its partner i+2, where j is the send size from i+1 to i+2...").

Offsets here are in *chunk slots*; the wire format (fingerprint + length +
payload, fixed slot size) converts them to bytes.

:func:`place` is the one placement decision: from the gathered matrix it
sequences RANK_SHUFFLE (or the identity), the partner walk and CALC_OFF.
The dump, both pipelines and the simulator call it; nothing else in
``src/`` calls the pieces it composes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DumpConfig, Strategy
from repro.core.shuffle import (
    identity_shuffle,
    inverse_positions,
    partners_of,
    rank_shuffle,
)


@dataclass
class WindowLayout:
    """Receive-window layout for every rank, in chunk-slot units.

    Attributes
    ----------
    window_slots:
        rank -> total slots its window must expose.
    offsets:
        (sender_rank, target_rank) -> starting slot of the sender's region.
    regions:
        target_rank -> list of (sender_rank, start_slot, slot_count) in
        increasing-distance order (the window's physical order).
    """

    window_slots: Dict[int, int] = field(default_factory=dict)
    offsets: Dict[Tuple[int, int], int] = field(default_factory=dict)
    regions: Dict[int, List[Tuple[int, int, int]]] = field(default_factory=dict)

    def offset_of(self, sender: int, target: int) -> int:
        return self.offsets[(sender, target)]

    def check_invariants(self) -> None:
        """Regions of each window must tile [0, window_slots) exactly."""
        for rank, slots in self.window_slots.items():
            cursor = 0
            for sender, start, count in self.regions.get(rank, []):
                assert start == cursor, (rank, sender, start, cursor)
                assert count >= 0
                cursor += count
            assert cursor == slots, (rank, cursor, slots)


def window_layout(
    shuffle: Sequence[int],
    send_load: Sequence[Sequence[int]],
    k: int,
    alive: Optional[Sequence[bool]] = None,
) -> WindowLayout:
    """Compute every rank's window size and every sender's offsets.

    Parameters
    ----------
    shuffle:
        Agreed rank permutation (position -> rank) from Algorithm 2 (or the
        identity for the naive strategies).
    send_load:
        The all-gathered ``SendLoad`` matrix: ``send_load[rank][j]`` is the
        number of chunks ``rank`` sends to its j-th partner (j >= 1;
        ``send_load[rank][0]`` is its local-store count and is ignored here).
    k:
        Replication factor.
    alive:
        The dump's per-rank liveness snapshot; ``None`` means all alive.

    Partner relations follow :func:`repro.core.shuffle.partners_of`: a
    sender's partner slot ``j`` targets its j-th *live* successor.  Walking
    backward from a live target, the sender at backward distance ``b``
    contributes ``SendLoad[sender][j]`` slots with ``j = (live ranks
    strictly between) + 1`` (``j = b`` with every node alive); dead senders
    stay in the walk (their data still ships) without advancing ``j``, and
    the walk stops once ``j`` exceeds ``min(k, N) - 1``.  Dead targets
    expose zero-slot windows.
    """
    n = len(shuffle)
    if len(send_load) != n:
        raise ValueError(
            f"send_load has {len(send_load)} rows for a world of {n} ranks"
        )
    if alive is not None and len(alive) != n:
        raise ValueError(f"alive has {len(alive)} entries for {n} ranks")
    nparts = min(k, n) - 1
    layout = WindowLayout()
    for t in range(n):
        target = shuffle[t]
        cursor = 0
        regions: List[Tuple[int, int, int]] = []
        if alive is None or alive[target]:
            live_between = 0
            for back in range(1, n):
                j = live_between + 1
                if j > nparts:
                    break
                sender = shuffle[(t - back) % n]
                row = send_load[sender]
                count = int(row[j]) if j < len(row) else 0
                layout.offsets[(sender, target)] = cursor
                regions.append((sender, cursor, count))
                cursor += count
                if alive is None or alive[sender]:
                    live_between += 1
        layout.window_slots[target] = cursor
        layout.regions[target] = regions
    return layout


@dataclass(frozen=True)
class Placement:
    """Where every rank sits and whom it ships to, for one dump.

    Attributes
    ----------
    shuffle:
        The agreed order (position -> rank).
    positions:
        rank -> shuffled position.
    partners:
        rank -> its partner ranks, partner slot order (:func:`partners_of`).
    layout:
        Every window's regions and offsets (:func:`window_layout`).
    """

    shuffle: List[int]
    positions: List[int]
    partners: List[List[int]]
    layout: WindowLayout

    def senders(self, rank: int) -> List[int]:
        """Every rank whose partner list includes ``rank``, in increasing
        distance order: the owners of its window's regions (dead senders
        included; a dead target has none)."""
        return [sender for sender, _start, _count in self.layout.regions[rank]]


def place(
    send_load: Sequence[Sequence[int]],
    config: DumpConfig,
    rank_to_node: Optional[Sequence[int]] = None,
    alive: Optional[Sequence[bool]] = None,
) -> Placement:
    """The placement every rank derives from the all-gathered ``SendLoad``
    matrix (Algorithms 2 and 3), with no further communication.

    Coll-dedup with ``config.shuffle`` orders the ranks by
    :func:`rank_shuffle` over the rows' partner totals against
    ``rank_to_node``; every other dump keeps the identity order.  ``k`` is
    ``config.effective_k(len(send_load))``; ``alive`` is the dump's
    liveness snapshot (``None``: every node alive).
    """
    n = len(send_load)
    k = config.effective_k(n)
    if config.strategy is Strategy.COLL_DEDUP and config.shuffle:
        totals = [sum(row[1:]) for row in send_load]
        shuffle = rank_shuffle(totals, k, rank_to_node)
    else:
        shuffle = identity_shuffle(n)
    positions = inverse_positions(shuffle)
    return Placement(
        shuffle=shuffle,
        positions=positions,
        partners=[partners_of(positions[r], shuffle, k, alive) for r in range(n)],
        layout=window_layout(shuffle, send_load, k, alive),
    )
