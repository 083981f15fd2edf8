"""Repair layer 2 — the planner: a load-balanced, coordination-free schedule.

Turns the scanner's under-replication table into an explicit list of
transfers, applying the same load-balancing philosophy as the dump itself:

* **sources spread the read load** — each copy is read from the holder with
  the least bytes already scheduled to serve (the repair-side analogue of
  HMERGE's designation truncation, which spreads *ownership* of popular
  chunks over their holders);
* **destinations are the least-loaded live nodes** — ranked by current
  physical occupancy plus bytes already scheduled to land there (the
  repair-side analogue of ``RANK_SHUFFLE``'s receive balancing) — and never
  co-locate with an existing replica or another new copy of the same chunk;
* **offsets are deterministic** — every destination's window is laid out by
  (source, schedule order), and slot offsets are the prefix sum of the
  (source, destination) transfer-count matrix, ``CALC_OFF``-style: each
  participant of the collective executor derives them from the schedule
  alone, so no extra coordination round is needed before the transfers
  start, and a source's records for one destination are one contiguous
  region — one put.

The greedy is inherently sequential (every choice moves the loads the next
one reads), so it stays one sweep in fingerprint order, but over plain ints
and with the schedule kept as columns.  What a row's choices depend on
besides the loads — its holders, the nodes that may receive it, how many
copies it needs — is worked out once per distinct holder set of the scan,
and a forced choice (one candidate destination, one holder) takes no
``min()``.  :attr:`RepairSchedule.transfers` materialises the per-transfer
objects only for whoever asks.

Planning is a pure function of (cluster state, scan): every rank running it
independently produces the identical schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.repair.scanner import RepairScan
from repro.storage.local_store import Cluster


@dataclass(frozen=True)
class RepairTransfer:
    """One replica to create: read ``fp`` at ``source``, store at ``dest``."""

    fp: Fingerprint
    dump_id: int
    size: int
    source: int
    dest: int
    #: True when ``source`` does not hold the chunk and must RS-decode it
    #: from its parity stripe before sending
    reconstruct: bool = False


@dataclass(frozen=True)
class ManifestTransfer:
    """One manifest blob to re-replicate (sent point-to-point; tiny)."""

    rank: int
    dump_id: int
    nbytes: int
    source: int
    dest: int


def _no_rows() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(eq=False)
class RepairSchedule:
    """The full repair plan, in canonical (deterministic) order.

    Chunk transfers are columns with one row per replica to create, in
    schedule order: row ``i`` copies ``fps[i]`` (``sizes[i]`` bytes) from
    node ``source[i]`` to node ``dest[i]``.  The window layout is derived
    from them once: destination ``d`` exposes ``window_slots[d]`` slots,
    source ``s`` owns the ``counts[s, d]`` consecutive slots starting at
    ``starts[s, d]``, filled in schedule order.
    """

    target_k: int
    #: digest size shared by every scheduled fingerprint (0 when empty)
    digest_size: int = 0
    #: payload capacity of one window slot: the largest scheduled chunk
    slot_payload: int = 0
    fps: List[Fingerprint] = field(default_factory=list)
    dump_ids: List[int] = field(default_factory=list)
    sizes: np.ndarray = field(default_factory=_no_rows)
    source: np.ndarray = field(default_factory=_no_rows)
    dest: np.ndarray = field(default_factory=_no_rows)
    #: True where ``source`` does not hold the chunk and must RS-decode it
    #: from its parity stripe before sending
    reconstruct: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool)
    )
    manifest_transfers: List[ManifestTransfer] = field(default_factory=list)
    #: (source node, dest node) -> transfers / first slot in dest's window
    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.int64)
    )
    starts: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.int64)
    )
    #: node id -> slots its repair window exposes
    window_slots: np.ndarray = field(default_factory=_no_rows)
    #: row -> slot index inside its destination's window
    slots: np.ndarray = field(default_factory=_no_rows)
    #: rows sorted by (dest, source, schedule order): window after window,
    #: each in slot order; node ``d``'s window begins at ``window_base[d]``
    window_order: np.ndarray = field(default_factory=_no_rows)
    window_base: np.ndarray = field(default_factory=_no_rows)

    @property
    def bytes_scheduled(self) -> int:
        return int(self.sizes.sum())

    @property
    def chunks_scheduled(self) -> int:
        return len(self.fps)

    @property
    def empty(self) -> bool:
        return not (self.fps or self.manifest_transfers)

    @cached_property
    def transfers(self) -> List[RepairTransfer]:
        """One :class:`RepairTransfer` per row (built on first use; the
        executor reads the columns)."""
        return [
            RepairTransfer(*row)
            for row in zip(
                self.fps,
                self.dump_ids,
                self.sizes.tolist(),
                self.source.tolist(),
                self.dest.tolist(),
                self.reconstruct.tolist(),
            )
        ]

    def region_rows(self, source: int, dest: int) -> np.ndarray:
        """Rows ``source`` sends to ``dest``, in slot order: they fill the
        ``counts[source, dest]`` slots from ``starts[source, dest]``."""
        first = self.window_base[dest] + self.starts[source, dest]
        return self.window_order[first : first + self.counts[source, dest]]

    def _lay_out_windows(self, n_nodes: int) -> None:
        """Derive the window layout columns from ``source`` / ``dest``."""
        pair = self.dest * n_nodes + self.source
        self.counts = (
            np.bincount(pair, minlength=n_nodes * n_nodes)
            .reshape(n_nodes, n_nodes)
            .T.copy()
        )
        self.starts = np.cumsum(self.counts, axis=0) - self.counts
        self.window_slots = self.counts.sum(axis=0)
        self.window_base = np.cumsum(self.window_slots) - self.window_slots
        self.window_order = np.argsort(pair, kind="stable")
        self.slots = np.empty(len(pair), dtype=np.int64)
        self.slots[self.window_order] = (
            np.arange(len(pair))
            - self.window_base[self.dest[self.window_order]]
        )


def plan_repair(cluster: Cluster, scan: RepairScan) -> RepairSchedule:
    """Schedule every deficit in ``scan`` onto live sources/destinations.

    Deterministic given (cluster, scan): chunks are visited in fingerprint
    order; source/destination ties break by node id.
    """
    live = sorted(n.node_id for n in cluster.alive_nodes)
    schedule = RepairSchedule(target_k=scan.target_k)
    if not live:
        return schedule

    # Scheduled load so far, in bytes, indexed by node id.  Destinations
    # additionally weigh the node's current physical occupancy so repair
    # fills the emptiest nodes first instead of amplifying existing
    # imbalance.
    n_nodes = len(cluster.nodes)
    read_load = [0] * n_nodes
    write_load = [0] * n_nodes
    for n in live:
        write_load[n] = cluster.nodes[n].chunks.physical_bytes
    # min() keeps the first of equal keys and every candidate list is in
    # ascending node id, so ties break towards the lowest id.
    read_of = read_load.__getitem__
    write_of = write_load.__getitem__

    # Once per distinct holder set: the source pool (any live node can
    # decode a parity-only chunk's stripe; let the least read-loaded one
    # do it, the decode re-reads surviving shards), the destinations that
    # hold no copy yet, the copies to make (fewer when fewer live nodes
    # than the target remain: best effort), and the choices that are
    # forced (one holder, one candidate), which take no min().
    per_set = []
    for holders in scan.holder_sets:
        pool = holders or tuple(live)
        candidates = tuple(n for n in live if n not in holders)
        per_set.append((
            pool,
            pool[0] if len(pool) == 1 else None,
            candidates,
            candidates[0] if len(candidates) == 1 else None,
            range(max(0, min(scan.target - len(holders), len(candidates)))),
        ))
    sources: List[int] = []
    dests: List[int] = []
    for size, (pool, forced_source, candidates, forced_dest, copies) in zip(
        scan.sizes, map(per_set.__getitem__, scan.holder_ids.tolist())
    ):
        for copy in copies:
            if copy:  # each copy lands on a different node
                candidates = tuple(c for c in candidates if c != dest)
            if forced_dest is None:
                dest = min(candidates, key=write_of)
            else:
                dest = forced_dest
            if forced_source is None:
                source = min(pool, key=read_of)
            else:
                source = forced_source
            sources.append(source)
            dests.append(dest)
            read_load[source] += size
            write_load[dest] += size

    for deficit in sorted(
        scan.manifests, key=lambda m: (m.dump_id, m.rank)
    ):
        candidates = [n for n in live if n not in deficit.holders]
        for _copy in range(deficit.deficit):
            if not candidates:
                break
            dest = min(candidates, key=write_of)
            source = min(deficit.holders, key=read_of)
            schedule.manifest_transfers.append(
                ManifestTransfer(
                    rank=deficit.rank,
                    dump_id=deficit.dump_id,
                    nbytes=deficit.nbytes,
                    source=source,
                    dest=dest,
                )
            )
            read_load[source] += deficit.nbytes
            write_load[dest] += deficit.nbytes
            candidates.remove(dest)

    if sources:
        digest_sizes = set(map(len, scan.fps))
        if len(digest_sizes) > 1:
            raise ValueError(
                "mixed fingerprint sizes in repair schedule: "
                f"{sorted(digest_sizes)}"
            )
        schedule.digest_size = digest_sizes.pop()
        # table row i made copies[holder_ids[i]] consecutive schedule rows
        made = np.array([len(entry[-1]) for entry in per_set], dtype=np.int64)
        rows = np.repeat(np.arange(len(scan.fps)), made[scan.holder_ids])
        table_rows = rows.tolist()
        schedule.fps = list(map(scan.fps.__getitem__, table_rows))
        schedule.dump_ids = list(map(scan.chunk_dump_ids.__getitem__, table_rows))
        schedule.sizes = np.array(scan.sizes, dtype=np.int64)[rows]
        parity_only = np.array([not h for h in scan.holder_sets], dtype=bool)
        schedule.reconstruct = parity_only[scan.holder_ids[rows]]
        schedule.source = np.array(sources, dtype=np.int64)
        schedule.dest = np.array(dests, dtype=np.int64)
        schedule.slot_payload = int(schedule.sizes.max())
        schedule._lay_out_windows(n_nodes)
    return schedule
