"""Repair layer 1 — the scanner: what is under-replicated, and by how much.

After node failures the cluster silently runs below the replication factor
K it promised at dump time.  The scanner walks every surviving manifest of
the dumps under audit and, for each distinct fingerprint they reference,
compares the *live* replica count
(:meth:`~repro.storage.local_store.Cluster.holder_column`) against the
repair target.  The result is the under-replication table the
planner turns into a transfer schedule:

* chunks with live holders but fewer than ``target`` of them — the common
  case: replicas died with their nodes and must be re-made from survivors;
* chunks with **no** live holder that an erasure-coded stripe can still
  decode (parity redundancy mode) — repairable, but the payload must be
  reconstructed before it can be re-replicated;
* chunks with no live holder and no decodable stripe — lost; recorded so
  the caller can report the blast radius honestly.

Manifests get the same treatment: they are tiny but losing the last copy
makes a rank's data unusable, so the scanner tracks their live-copy
deficits too.

The scan is columnar: the audit set is every readable manifest's
fingerprint column, concatenated and sorted once; one sweep per live node
gives each fingerprint's holder set as a bitmask
(:meth:`~repro.storage.local_store.Cluster.holder_column`), sizes come
from one store read per first-holder group, and the table's rows are
picked out of those columns by index, already in fingerprint order.  Only
fingerprints that a live parity record covers, and those with no live
holder, take the per-chunk stripe checks, so replication-only clusters pay
nothing for them.

Scanning is read-only and deterministic: every rank of a collective repair
can run it independently and arrive at the identical table — the same
"no extra coordination" property the dump's offset planning (Algorithm 3)
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint, sorted_runs
from repro.storage.local_store import Cluster
from repro.storage.manifest import Manifest


@dataclass(frozen=True)
class ChunkDeficit:
    """One under-replicated chunk: where it lives vs. where it should."""

    fp: Fingerprint
    #: dump whose parity records (if any) cover the chunk
    dump_id: int
    #: stored payload size in bytes (parity mode: the original chunk size)
    size: int
    #: live node ids currently holding the chunk, ascending
    holders: Tuple[int, ...]
    #: live replica count to restore (K capped at the live-node count)
    target: int
    #: True when no replica survives and the payload must be RS-decoded
    #: from its stripe before re-replication
    parity_only: bool = False

    @property
    def deficit(self) -> int:
        """Replicas that must be created."""
        return max(0, self.target - len(self.holders))

    @property
    def deficit_bytes(self) -> int:
        return self.deficit * self.size


@dataclass(frozen=True)
class ManifestDeficit:
    """A rank's manifest with fewer than ``target`` live copies."""

    rank: int
    dump_id: int
    nbytes: int
    holders: Tuple[int, ...]
    target: int

    @property
    def deficit(self) -> int:
        return max(0, self.target - len(self.holders))


@dataclass(eq=False)
class RepairScan:
    """The under-replication table of one scan pass.

    The chunk table is columnar: ``fps``, ``sizes``, ``holders`` and
    ``chunk_dump_ids`` are parallel lists with one row per under-replicated
    chunk, in ascending fingerprint order (the order the planner visits
    them in).  A row with no holders is parity-only.  ``holders[i]`` is
    ``holder_sets[holder_ids[i]]``: the planner works once per distinct
    holder set, of which a table has few.
    """

    target_k: int
    dump_ids: List[int] = field(default_factory=list)
    n_live_nodes: int = 0
    #: live replica count every row must reach (K capped at the live nodes)
    target: int = 0
    fps: List[Fingerprint] = field(default_factory=list)
    #: stored payload size in bytes (parity-only rows: the original size)
    sizes: List[int] = field(default_factory=list)
    #: live node ids holding the chunk, ascending; ``()`` when the payload
    #: must be RS-decoded from its stripe before re-replication
    holders: List[Tuple[int, ...]] = field(default_factory=list)
    #: dump whose parity records (if any) cover the chunk
    chunk_dump_ids: List[int] = field(default_factory=list)
    #: every distinct live holder set the scan met, ascending node ids
    holder_sets: List[Tuple[int, ...]] = field(default_factory=list)
    #: row -> index of its holder set in ``holder_sets``
    holder_ids: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.intp)
    )
    #: replica copies the repair must create, and the bytes they carry
    deficit_chunks: int = 0
    deficit_bytes: int = 0
    #: under-replicated manifests, in (dump_id, rank) order
    manifests: List[ManifestDeficit] = field(default_factory=list)
    #: chunks with no live replica and no decodable stripe, in fingerprint
    #: order, each with the first dump that references it
    lost_chunks: List[Tuple[Fingerprint, int]] = field(default_factory=list)
    #: (rank, dump_id) whose manifest has no live copy at all
    lost_ranks: List[Tuple[int, int]] = field(default_factory=list)
    #: everything the walk visited (healthy chunks included)
    scanned_chunks: int = 0
    scanned_bytes: int = 0

    @cached_property
    def chunks(self) -> Dict[Fingerprint, ChunkDeficit]:
        """fingerprint -> :class:`ChunkDeficit` view of each table row
        (built on first use; the planner reads the columns)."""
        return {
            fp: ChunkDeficit(
                fp=fp,
                dump_id=dump_id,
                size=size,
                holders=holders,
                target=self.target,
                parity_only=not holders,
            )
            for fp, dump_id, size, holders in zip(
                self.fps, self.chunk_dump_ids, self.sizes, self.holders
            )
        }

    @property
    def clean(self) -> bool:
        """True when nothing needs repairing and nothing is lost."""
        return not (
            self.fps or self.manifests or self.lost_chunks or self.lost_ranks
        )


def _audit_set(columns: List[np.ndarray], dumps: List[int]):
    """The distinct fingerprints of the readable manifests' ``columns``,
    given in scan order ((dump_id, rank), dumps as the caller listed them;
    ``dumps[i]`` wrote ``columns[i]``).

    Returns ``(fps, first, referencing)``: the fingerprints ascending, as
    ``bytes``; each one's earliest writer (the dump of its first row in
    scan order); and ``referencing(j)``, every dump that references
    ``fps[j]``, once each and in scan order.
    """
    by_width: Dict[int, List[int]] = {}
    for i, column in enumerate(columns):
        by_width.setdefault(column.dtype.itemsize, []).append(i)
    fps: List[Fingerprint] = []
    first, orders, writers, run_starts = [], [], [], []
    base = 0
    for members in by_width.values():
        column = np.concatenate([columns[i] for i in members])
        row_dumps = np.repeat(
            [dumps[i] for i in members], [len(columns[i]) for i in members]
        )
        order, starts = sorted_runs(column)
        heads = np.minimum.reduceat(order, starts)  # each run's first row
        fps.extend(column[heads].tolist())  # a void column lists whole digests
        first.append(row_dumps[heads])
        orders.append(order + base)
        writers.append(row_dumps)
        run_starts.append(starts + base)
        base += len(column)
    if not fps:
        return fps, None, None
    first, order, row_dumps, starts = map(
        np.concatenate, (first, orders, writers, run_starts)
    )
    stops = np.append(starts[1:], base)
    if len(by_width) > 1:  # bytes order across digest widths
        ranked = np.array(sorted(range(len(fps)), key=fps.__getitem__))
        fps = [fps[i] for i in ranked]
        first, starts, stops = first[ranked], starts[ranked], stops[ranked]

    def referencing(j: int) -> List[int]:
        rows = np.sort(order[starts[j] : stops[j]])
        return list(dict.fromkeys(row_dumps[rows].tolist()))

    return fps, first, referencing


def scan_cluster(
    cluster: Cluster,
    target_k: int,
    dump_ids: Optional[Sequence[int]] = None,
) -> RepairScan:
    """Build the under-replication table for ``dump_ids`` (default: all
    dumps still visible on live nodes).

    ``target_k`` is the replication factor to restore; the per-chunk target
    is capped at the live-node count (you cannot place more distinct
    replicas than there are live nodes).
    """
    if target_k < 1:
        raise ValueError(f"target_k must be >= 1, got {target_k}")
    from repro.erasure.ec_dump import find_stripe

    if dump_ids is None:
        dump_ids = cluster.known_dumps()
    live = cluster.alive_nodes
    target = min(target_k, len(live))
    scan = RepairScan(
        target_k=target_k,
        dump_ids=list(dump_ids),
        n_live_nodes=len(live),
        target=target,
    )

    # -- manifests: live-copy deficits, and each readable one's fingerprints ---
    columns: List[np.ndarray] = []
    column_dumps: List[int] = []
    for dump_id in scan.dump_ids:
        for rank in range(cluster.n_ranks):
            holders = cluster.manifest_holders(rank, dump_id)
            if not holders:
                # The manifest may be genuinely absent for this (rank, dump)
                # combination — e.g. a rank that joined later — so only ranks
                # that ever dumped are reported; without any live copy we
                # cannot tell, which is exactly the loss being recorded.
                scan.lost_ranks.append((rank, dump_id))
                continue
            blob = cluster.nodes[holders[0]].get_manifest_blob(rank, dump_id)
            if len(holders) < target:
                scan.manifests.append(
                    ManifestDeficit(
                        rank=rank,
                        dump_id=dump_id,
                        nbytes=len(blob),
                        holders=tuple(holders),
                        target=target,
                    )
                )
            column = Manifest.fingerprint_column(blob)
            if len(column):  # an empty column's rows are 1-byte voids
                columns.append(column)
                column_dumps.append(dump_id)

    # -- audit set, sorted once; one holder sweep over it ----------------------
    fps, row_dumps, referencing = _audit_set(columns, column_dumps)
    scan.scanned_chunks = len(fps)
    if not fps:
        return scan
    holder_column = cluster.holder_column(fps)
    replicas = holder_column.replicas()
    first_holder = holder_column.first()

    # -- sizes: one batch read per first-holder group --------------------------
    sizes = np.zeros(len(fps), dtype=np.int64)
    for node_id in np.unique(first_holder[first_holder >= 0]).tolist():
        rows = np.flatnonzero(first_holder == node_id)
        payloads = cluster.nodes[node_id].chunks.get_many(
            list(map(fps.__getitem__, rows.tolist()))
        )
        sizes[rows] = np.fromiter(map(len, payloads), np.int64, len(rows))
    scan.scanned_bytes = int(sizes.sum())

    covered: Set[Tuple[Fingerprint, int]] = set()
    for node in live:
        covered.update(node.parity_keys())

    # -- under-replicated rows -------------------------------------------------
    in_table = replicas < target
    if covered:
        # A stripe that can still lose target-1 shard nodes protects the
        # chunk as well as target replicas would — leave it on parity.
        # Stripes below that margin get the chunk re-replicated instead
        # (parity repair would need the whole group's cooperation;
        # replication only needs the bytes).
        held = np.flatnonzero(in_table & (replicas > 0)).tolist()
        for j, dump_id in zip(held, row_dumps[held].tolist()):
            if (fps[j], dump_id) in covered:
                stripe = find_stripe(cluster, fps[j], dump_id)
                if stripe is not None and stripe.margin >= target - 1:
                    in_table[j] = False

    # -- no live replica: decodable from a referencing dump's stripe? ----------
    holderless = np.flatnonzero(replicas == 0)
    in_table[holderless] = False
    for j in holderless.tolist():
        fp = fps[j]
        # Every dump that references it, earliest writer first: a later
        # dump's stripe may still cover what the first one lost.
        dumps = referencing(j)
        for dump_id in dumps:
            if (fp, dump_id) not in covered:
                continue
            stripe = find_stripe(cluster, fp, dump_id)
            if stripe is not None and stripe.margin >= 0:
                if dump_id == dumps[0]:
                    # a chunk only a later dump rescues is not sized into
                    # the walk's byte count
                    scan.scanned_bytes += stripe.size
                sizes[j] = stripe.size
                row_dumps[j] = dump_id
                in_table[j] = True
                break
        else:
            scan.lost_chunks.append((fp, dumps[0]))

    # -- the table: rows by index, already in fingerprint order ----------------
    table = np.flatnonzero(in_table)
    row_sizes = sizes[table]
    scan.fps = list(map(fps.__getitem__, table.tolist()))
    scan.sizes = row_sizes.tolist()
    scan.chunk_dump_ids = row_dumps[table].tolist()
    scan.holder_sets = holder_column.sets()
    scan.holder_ids = holder_column.ids[table]
    scan.holders = list(
        map(scan.holder_sets.__getitem__, scan.holder_ids.tolist())
    )
    copies = target - replicas[table]
    scan.deficit_chunks = int(copies.sum())
    scan.deficit_bytes = int(copies @ row_sizes)
    return scan
