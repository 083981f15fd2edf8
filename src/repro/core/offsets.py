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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.shuffle import inverse_positions


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
