"""Repair layer 1 — the scanner: what is under-replicated, and by how much.

After node failures the cluster silently runs below the replication factor
K it promised at dump time.  The scanner walks every surviving manifest of
the dumps under audit and, for each distinct fingerprint they reference,
compares the *live* replica count (:meth:`~repro.storage.local_store.Cluster.locate_many`)
against the repair target.  The result is the under-replication table the
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

The scan is batched: the audit set is merged one manifest at a time,
located with one sweep per live node and sized with one store read per
holder group, and the table is kept as parallel columns in fingerprint
order.  Only fingerprints that a live parity record covers take the
per-chunk stripe checks, so replication-only clusters pay nothing for
them.

Scanning is read-only and deterministic: every rank of a collective repair
can run it independently and arrive at the identical table — the same
"no extra coordination" property the dump's offset planning (Algorithm 3)
relies on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.storage.local_store import Cluster


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


@dataclass
class RepairScan:
    """The under-replication table of one scan pass.

    The chunk table is columnar: ``fps``, ``sizes``, ``holders`` and
    ``chunk_dump_ids`` are parallel lists with one row per under-replicated
    chunk, in ascending fingerprint order (the order the planner visits
    them in).  A row with no holders is parity-only.
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

    # -- manifests: live-copy deficits, and where to read each one ------------
    readable: List[Tuple[int, int, int]] = []  # (dump_id, rank, a live holder)
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
            if len(holders) < target:
                node = cluster.nodes[holders[0]]
                scan.manifests.append(
                    ManifestDeficit(
                        rank=rank,
                        dump_id=dump_id,
                        nbytes=len(node.get_manifest_blob(rank, dump_id)),
                        holders=tuple(holders),
                        target=target,
                    )
                )
            readable.append((dump_id, rank, holders[0]))

    def fingerprints_of(dump_id: int, rank: int, holder: int):
        return cluster.nodes[holder].get_manifest(rank, dump_id).fingerprints

    # -- audit set: every referenced fingerprint -> first referencing dump ----
    # Merged last manifest first so the earliest writer of a key wins.
    first_dump: Dict[Fingerprint, int] = {}
    for key in reversed(readable):
        first_dump.update(dict.fromkeys(fingerprints_of(*key), key[0]))
    audit = list(first_dump)
    scan.scanned_chunks = len(audit)
    located = cluster.locate_many(audit)

    # -- sizes: one batch read per first-holder group --------------------------
    by_first_holder: Dict[int, List[int]] = {}
    for i, holders in enumerate(located):
        if holders:
            by_first_holder.setdefault(holders[0], []).append(i)
    sizes = [0] * len(audit)
    for node_id, rows in by_first_holder.items():
        payloads = cluster.nodes[node_id].chunks.get_many(
            [audit[i] for i in rows]
        )
        for i, size in zip(rows, map(len, payloads)):
            sizes[i] = size
    scan.scanned_bytes = sum(sizes)

    covered: Set[Tuple[Fingerprint, int]] = set()
    for node in live:
        covered.update(node.parity_keys())

    # -- under-replicated rows: (fp, size, holders, dump_id) -------------------
    table: List[Tuple[Fingerprint, int, Tuple[int, ...], int]] = []
    holderless: List[Fingerprint] = []
    replicas = np.fromiter(map(len, located), dtype=np.intp, count=len(located))
    for i in np.flatnonzero(replicas < target).tolist():
        fp = audit[i]
        holders = located[i]
        if not holders:
            holderless.append(fp)
            continue
        dump_id = first_dump[fp]
        if covered and (fp, dump_id) in covered:
            # A stripe that can still lose target-1 shard nodes protects
            # the chunk as well as target replicas would — leave it on
            # parity.  Stripes below that margin get the chunk
            # re-replicated instead (parity repair would need the whole
            # group's cooperation; replication only needs the bytes).
            stripe = find_stripe(cluster, fp, dump_id)
            if stripe is not None and stripe.margin >= target - 1:
                continue
        table.append((fp, sizes[i], tuple(holders), dump_id))

    # -- no live replica: decodable from a referencing dump's stripe? ----------
    if holderless:
        referencing: Dict[Fingerprint, List[int]] = {
            fp: [first_dump[fp]] for fp in holderless
        }
        if covered and len(scan.dump_ids) > 1:
            # A later dump's stripe may still cover what the first one lost.
            for key in readable:
                for fp in referencing.keys() & set(fingerprints_of(*key)):
                    if referencing[fp][-1] != key[0]:
                        referencing[fp].append(key[0])
        for fp in sorted(holderless):
            dumps = referencing[fp]
            for dump_id in dumps:
                if (fp, dump_id) not in covered:
                    continue
                stripe = find_stripe(cluster, fp, dump_id)
                if stripe is not None and stripe.margin >= 0:
                    if dump_id == dumps[0]:
                        # a chunk only a later dump rescues is not sized
                        # into the walk's byte count
                        scan.scanned_bytes += stripe.size
                    table.append((fp, stripe.size, (), dump_id))
                    break
            else:
                scan.lost_chunks.append((fp, dumps[0]))

    if table:
        table.sort(key=operator.itemgetter(0))  # fingerprint order
        fps, row_sizes, row_holders, row_dumps = zip(*table)
        scan.fps = list(fps)
        scan.sizes = list(row_sizes)
        scan.holders = list(row_holders)
        scan.chunk_dump_ids = list(row_dumps)
        copies = [target - held for held in map(len, row_holders)]
        scan.deficit_chunks = sum(copies)
        scan.deficit_bytes = sum(map(operator.mul, copies, row_sizes))
    return scan
