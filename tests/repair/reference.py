"""Executable reference for the repair scanner and planner.

The per-chunk loops the batched ``repro.repair`` replaced, kept naive on
purpose: one ``locate`` per fingerprint, one ``min`` per copy, one slot
counter per window.  ``test_repair_equivalence.py`` holds the production
scan, schedule and window layout equal to these.

A stripe is judged the way a decoder would: walk every live node's parity
records, fetch every surviving shard's bytes and count them
(:func:`gather_stripe`).  ``tests/erasure/test_ec_dump.py`` holds
``repro.erasure.ec_dump.find_stripe`` equal to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.erasure.ec_dump import NO_CHUNK
from repro.repair import (
    ChunkDeficit,
    ManifestDeficit,
    ManifestTransfer,
    RepairTransfer,
)


def _anchor(cluster, fp, dump_id):
    """The first record covering ``fp`` in ``dump_id`` on the first live
    node that has one, or None."""
    for node in cluster.alive_nodes:
        for record in node._parity:
            if record.dump_id == dump_id and fp in record.fingerprints:
                return record
    return None


def gather_stripe(cluster, fp, dump_id):
    """``(anchor, {shard position: bytes})`` of the stripe covering ``fp``:
    member chunks fetched from their first live holder (pads are known
    zeros), parity shards from every live node; None without a live record."""
    anchor = _anchor(cluster, fp, dump_id)
    if anchor is None:
        return None
    available: Dict[int, bytes] = {}
    for pos, member in enumerate(anchor.fingerprints):
        if member == NO_CHUNK:
            available[pos] = bytes(anchor.shard_width)
            continue
        holders = cluster.locate(member)
        if holders:
            payload = bytes(cluster.nodes[holders[0]].chunks.get(member))
            available[pos] = payload.ljust(anchor.shard_width, b"\x00")
    for node in cluster.alive_nodes:
        for record in node._parity:
            if record.stripe_key() == anchor.stripe_key():
                available[anchor.stripe_data + record.shard_index] = record.shard
    return anchor, available


def stripe_margin(cluster, fp, dump_id) -> Optional[int]:
    """Surviving shards beyond ``stripe_data``; None without a live record."""
    gathered = gather_stripe(cluster, fp, dump_id)
    if gathered is None:
        return None
    anchor, available = gathered
    return len(available) - anchor.stripe_data


def decodable(cluster, fp, dump_id) -> bool:
    """True iff enough of the stripe covering ``fp`` survives to decode it."""
    margin = stripe_margin(cluster, fp, dump_id)
    return margin is not None and margin >= 0


def _parity_chunk_size(cluster, fp, dump_id) -> int:
    record = _anchor(cluster, fp, dump_id)
    if record is None:
        return 0
    return record.chunk_sizes[record.fingerprints.index(fp)]


def scan(cluster, target_k, dump_ids=None) -> dict:
    """The under-replication table, one manifest entry at a time."""
    if dump_ids is None:
        dump_ids = cluster.known_dumps()
    target = min(target_k, len(cluster.alive_nodes))
    chunks: Dict[bytes, ChunkDeficit] = {}
    manifests: List[ManifestDeficit] = []
    lost_chunks: List[Tuple[bytes, int]] = []
    lost_ranks: List[Tuple[int, int]] = []
    scanned_chunks = scanned_bytes = 0
    repairable: Dict[bytes, bool] = {}  # every fingerprint seen so far

    def parity_only(fp, dump_id):
        return ChunkDeficit(
            fp=fp, dump_id=dump_id, size=_parity_chunk_size(cluster, fp, dump_id),
            holders=(), target=target, parity_only=True,
        )

    for dump_id in dump_ids:
        for rank in range(cluster.n_ranks):
            holders = cluster.manifest_holders(rank, dump_id)
            if not holders:
                lost_ranks.append((rank, dump_id))
                continue
            node = cluster.nodes[holders[0]]
            if len(holders) < target:
                manifests.append(ManifestDeficit(
                    rank=rank, dump_id=dump_id,
                    nbytes=len(node.get_manifest_blob(rank, dump_id)),
                    holders=tuple(holders), target=target,
                ))
            for fp in set(node.get_manifest(rank, dump_id).fingerprints):
                if fp in repairable:
                    # Lost so far: a later dump's stripe may still cover it.
                    if not repairable[fp] and decodable(cluster, fp, dump_id):
                        chunks[fp] = parity_only(fp, dump_id)
                        lost_chunks = [e for e in lost_chunks if e[0] != fp]
                        repairable[fp] = True
                    continue
                scanned_chunks += 1
                chunk_holders = cluster.locate(fp)
                repairable[fp] = True
                if chunk_holders:
                    size = cluster.nodes[chunk_holders[0]].chunks.nbytes_of(fp)
                    scanned_bytes += size
                    if len(chunk_holders) < target:
                        # An intact-enough stripe protects as well as
                        # replicas would; leave the chunk on parity.
                        margin = stripe_margin(cluster, fp, dump_id)
                        if margin is not None and margin >= target - 1:
                            continue
                        chunks[fp] = ChunkDeficit(
                            fp=fp, dump_id=dump_id, size=size,
                            holders=tuple(chunk_holders), target=target,
                        )
                elif decodable(cluster, fp, dump_id):
                    chunks[fp] = parity_only(fp, dump_id)
                    scanned_bytes += chunks[fp].size
                else:
                    repairable[fp] = False
                    lost_chunks.append((fp, dump_id))
    return {
        "target": target,
        "chunks": chunks,
        "manifests": manifests,
        "lost_chunks": sorted(lost_chunks),
        "lost_ranks": lost_ranks,
        "scanned_chunks": scanned_chunks,
        "scanned_bytes": scanned_bytes,
    }


def plan(cluster, chunks, manifests):
    """Greedy schedule: chunks in fingerprint order, each copy read from the
    least read-loaded holder and written to the least write-loaded live
    node that holds no copy yet; ties break by node id."""
    live = sorted(n.node_id for n in cluster.alive_nodes)
    read_load = {n: 0 for n in live}
    write_load = {n: cluster.nodes[n].chunks.physical_bytes for n in live}
    transfers: List[RepairTransfer] = []
    manifest_transfers: List[ManifestTransfer] = []

    def place(holders, nbytes, copies, parity_only=False):
        placed: List[int] = []
        for _copy in range(copies):
            candidates = [n for n in live if n not in holders and n not in placed]
            if not candidates:
                break
            dest = min(candidates, key=lambda n: (write_load[n], n))
            # Parity-only: any live node can decode the stripe.
            sources = live if parity_only else holders
            source = min(sources, key=lambda n: (read_load[n], n))
            read_load[source] += nbytes
            write_load[dest] += nbytes
            placed.append(dest)
            yield source, dest

    if live:
        for fp in sorted(chunks):
            entry = chunks[fp]
            for source, dest in place(
                entry.holders, entry.size, entry.deficit, not entry.holders
            ):
                transfers.append(RepairTransfer(
                    fp=fp, dump_id=entry.dump_id, size=entry.size,
                    source=source, dest=dest, reconstruct=not entry.holders,
                ))
        for m in sorted(manifests, key=lambda m: (m.dump_id, m.rank)):
            for source, dest in place(m.holders, m.nbytes, m.deficit):
                manifest_transfers.append(ManifestTransfer(
                    rank=m.rank, dump_id=m.dump_id, nbytes=m.nbytes,
                    source=source, dest=dest,
                ))
    return transfers, manifest_transfers


def window_slots(transfers) -> List[int]:
    """Slot of each transfer in its destination's window: a window holds
    its sources' regions in ascending source id, each in schedule order."""
    slots = [0] * len(transfers)
    for dest in {t.dest for t in transfers}:
        inbound = [i for i, t in enumerate(transfers) if t.dest == dest]
        inbound.sort(key=lambda i: (transfers[i].source, i))
        for slot, i in enumerate(inbound):
            slots[i] = slot
    return slots
