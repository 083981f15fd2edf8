"""Erasure-coded redundancy inside ``DUMP_OUTPUT`` (paper §VI, end to end).

With ``DumpConfig.redundancy = "parity"`` the coll-dedup pipeline changes
its top-up mechanism: chunks that lack natural replicas are *not* copied
K-1 times.  Instead ranks form **cross-rank stripe groups** (FTI-style):
``d = stripe_data`` consecutive ranks in the shuffled order contribute
their s-th unprotected chunk to stripe ``s``; the next ``m = K-1``
positions are the group's *parity holders*, each computing one RS shard of
every stripe.  Because the d data shards of a stripe live on d *different
nodes*, any m node failures leave every stripe decodable — the same
failure coverage as K-replication at ``m/d`` of its storage.

Traffic is ~the same as replication (each unprotected chunk travels to the
m parity holders — information must reach them somehow); the win is
storage: parity occupies ``m/d`` of the protected data instead of ``m``
copies.  Bench X1 quantifies both.

Restore: a lost chunk is *decoded* — the parity record (stored with each
shard) names the stripe's member fingerprints, survivors are fetched by
content address from any live node, and the RS system is solved
(:func:`reconstruct_chunk`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.storage.local_store import Cluster, StorageError

#: placeholder for absent stripe members (shorter short-lists pad with
#: known-zero shards; no bytes travel for them)
NO_CHUNK: Fingerprint = b""


@dataclass(frozen=True)
class ParityRecord:
    """One parity shard plus everything needed to use it standalone."""

    dump_id: int
    stripe_index: int
    group_members: Tuple[int, ...]  # ranks contributing data shards, in order
    fingerprints: Tuple[Fingerprint, ...]  # per member; NO_CHUNK if absent
    chunk_sizes: Tuple[int, ...]  # original payload sizes (0 if absent)
    stripe_data: int  # RS d
    stripe_parity: int  # RS m
    shard_index: int  # which parity shard this is (0..m-1)
    shard: bytes  # shard bytes (stripe-wide width)

    @property
    def shard_width(self) -> int:
        return len(self.shard)

    def stripe_key(self) -> Tuple:
        return (self.dump_id, self.group_members, self.stripe_index)


def effective_geometry(stripe_data: int, k_eff: int, world: int) -> Tuple[int, int]:
    """(d, m) actually usable: m = K-1 capped by the world, d capped so a
    group's members and holders are distinct ranks."""
    m = min(k_eff - 1, max(world - 1, 0))
    d = max(1, min(stripe_data, world - m))
    return d, m


def group_structure(
    world: int, d: int, m: int
) -> List[Tuple[List[int], List[int]]]:
    """Stripe groups over shuffled *positions*: ``[(members, holders), ...]``.

    Members are consecutive position blocks of size d (last may be short);
    holders are the next m positions (mod world).
    """
    groups: List[Tuple[List[int], List[int]]] = []
    pos = 0
    while pos < world:
        members = list(range(pos, min(pos + d, world)))
        holders = [(members[-1] + 1 + j) % world for j in range(m)]
        groups.append((members, holders))
        pos += d
    return groups


def parity_shard(
    codec: ReedSolomon, shard_index: int, data_shards: Sequence[bytes]
) -> bytes:
    """RS parity shard ``shard_index`` of equal-width data shards."""
    width = len(data_shards[0])
    data = np.frombuffer(b"".join(data_shards), dtype=np.uint8).reshape(
        len(data_shards), width
    )
    row = codec.matrix[codec.k + shard_index : codec.k + shard_index + 1]
    return bytes(GF256.matmul(row, data)[0])


def ship_parity(
    comm,
    cluster: Cluster,
    config,
    plan,
    payload_of: Dict[Fingerprint, bytes],
    shuffle: Sequence[int],
    my_pos: int,
    dump_id: int,
    report,
    k_eff: int,
) -> None:
    """The dump-side protocol: members ship unprotected chunks to their
    group's parity holders; holders encode and store the shards.

    Collective: every rank calls this (possibly with zero chunks to
    protect).  ``K=1`` is a no-op (nothing to protect against).
    """
    from repro.simmpi import collectives

    world = comm.size
    d, m = effective_geometry(config.stripe_data, k_eff, world)
    if m == 0:
        return
    groups = group_structure(world, d, m)
    width = config.wire_payload_capacity
    codec = ReedSolomon(d + m, d)
    tag = comm.next_collective_tag()

    # Everyone learns everyone's short-chunk count (stripe counts per group).
    short_counts = collectives.allgather(comm, len(plan.short_fps))

    # Member role: send (index, fp, payload) triples to each group holder.
    my_group = my_pos // d
    members, holders = groups[my_group]
    bundle = [
        (i, fp, payload_of[fp]) for i, fp in enumerate(plan.short_fps)
    ]
    for hpos in holders:
        comm.send(bundle, shuffle[hpos], tag=tag)
        report.sent_chunks += len(bundle)
        report.sent_bytes += sum(len(p) for _i, _f, p in bundle)

    # Holder role: for every group I hold, receive all members' chunks,
    # encode my shard of each stripe, store it with full stripe metadata.
    node = cluster.storage_for(comm.rank)
    encode_span = comm.trace.begin_span("parity-encode")
    for g_members, g_holders in groups:
        if my_pos not in g_holders:
            continue
        my_shard_index = g_holders.index(my_pos)
        incoming: Dict[int, Dict[int, Tuple[Fingerprint, bytes]]] = {}
        for mpos in g_members:
            triples = comm.recv(shuffle[mpos], tag=tag)
            incoming[mpos] = {i: (fp, payload) for i, fp, payload in triples}
            report.received_chunks += len(triples)
            report.received_bytes += sum(len(p) for _i, _f, p in triples)
        n_stripes = max(
            (short_counts[shuffle[mpos]] for mpos in g_members), default=0
        )
        member_ranks = tuple(shuffle[mpos] for mpos in g_members)
        for s in range(n_stripes):
            fps: List[Fingerprint] = []
            sizes: List[int] = []
            shards: List[bytes] = []
            for mpos in g_members:
                entry = incoming[mpos].get(s)
                if entry is None:
                    fps.append(NO_CHUNK)
                    sizes.append(0)
                    shards.append(b"\x00" * width)
                else:
                    fp, payload = entry
                    fps.append(fp)
                    sizes.append(len(payload))
                    shards.append(payload.ljust(width, b"\x00"))
            while len(shards) < d:  # short tail group
                fps.append(NO_CHUNK)
                sizes.append(0)
                shards.append(b"\x00" * width)
            shard = parity_shard(codec, my_shard_index, shards)
            node.put_parity(
                ParityRecord(
                    dump_id=dump_id,
                    stripe_index=s,
                    group_members=member_ranks,
                    fingerprints=tuple(fps),
                    chunk_sizes=tuple(sizes),
                    stripe_data=d,
                    stripe_parity=m,
                    shard_index=my_shard_index,
                    shard=shard,
                )
            )
            report.parity_stripes += 1
    comm.trace.annotate(stripes=report.parity_stripes)
    comm.trace.end_span(encode_span)


def _gather_stripe(
    cluster: Cluster, fp: Fingerprint, dump_id: int
) -> Optional[Tuple[ParityRecord, Dict[int, bytes]]]:
    """Locate a live stripe covering ``fp`` and its surviving shards."""
    anchor: Optional[ParityRecord] = None
    for node in cluster.nodes:
        if not node.alive:
            continue
        record = node.find_parity(fp, dump_id)
        if record is not None:
            anchor = record
            break
    if anchor is None:
        return None

    available: Dict[int, bytes] = {}
    for pos, member_fp in enumerate(anchor.fingerprints):
        if member_fp == NO_CHUNK:
            available[pos] = b"\x00" * anchor.shard_width  # known-zero pad
            continue
        holders = cluster.locate(member_fp)
        if holders:
            # A stored payload is a bytes-like, not always ``bytes``.
            payload = bytes(cluster.nodes[holders[0]].chunks.get(member_fp))
            available[pos] = payload.ljust(anchor.shard_width, b"\x00")
    key = anchor.stripe_key()
    for node in cluster.nodes:
        if not node.alive:
            continue
        for record in node.parity_for_stripe(key):
            available[anchor.stripe_data + record.shard_index] = record.shard
    return anchor, available


def stripe_margin(
    cluster: Cluster, fp: Fingerprint, dump_id: int
) -> Optional[int]:
    """How many more shard-holding nodes the stripe covering ``fp`` can
    lose before it stops decoding; ``None`` when no live parity record
    covers the chunk.

    A margin of ``m`` (= ``stripe_parity``) is a fully intact stripe — the
    same failure tolerance as K-replication.  The count is conservative:
    every available shard unit (member chunk with a live holder, live
    parity shard, known-zero pad) contributes one, even if a member chunk
    happens to have extra natural replicas.
    """
    anchor: Optional[ParityRecord] = None
    for node in cluster.nodes:
        if not node.alive:
            continue
        record = node.find_parity(fp, dump_id)
        if record is not None:
            anchor = record
            break
    if anchor is None:
        return None
    available = 0
    for member_fp in anchor.fingerprints:
        if member_fp == NO_CHUNK or cluster.locate(member_fp):
            available += 1
    key = anchor.stripe_key()
    shard_indices = set()
    for node in cluster.nodes:
        if not node.alive:
            continue
        for record in node.parity_for_stripe(key):
            shard_indices.add(record.shard_index)
    return available + len(shard_indices) - anchor.stripe_data


def can_reconstruct(cluster: Cluster, fp: Fingerprint, dump_id: int) -> bool:
    """True iff :func:`reconstruct_chunk` would succeed (no decoding done)."""
    gathered = _gather_stripe(cluster, fp, dump_id)
    if gathered is None:
        return False
    anchor, available = gathered
    return len(available) >= anchor.stripe_data


def reconstruct_chunk(
    cluster: Cluster,
    fp: Fingerprint,
    dump_id: int,
) -> bytes:
    """Rebuild a chunk with no live replica from its cross-rank stripe.

    Finds any live parity record covering ``fp``, gathers the stripe's
    surviving data chunks (content-addressed, from any live holder), the
    other live parity shards, and RS-decodes.  Raises
    :class:`StorageError` when fewer than ``stripe_data`` shards survive.
    """
    gathered = _gather_stripe(cluster, fp, dump_id)
    if gathered is None:
        raise StorageError(
            f"chunk {fp.hex()[:12]}...: no live parity covers it"
        )
    anchor, available = gathered
    if len(available) < anchor.stripe_data:
        raise StorageError(
            f"chunk {fp.hex()[:12]}...: stripe has only {len(available)} of "
            f"{anchor.stripe_data} shards alive"
        )
    codec = ReedSolomon(
        anchor.stripe_data + anchor.stripe_parity, anchor.stripe_data
    )
    data = codec.decode(available)
    pos = anchor.fingerprints.index(fp)
    return data[pos][: anchor.chunk_sizes[pos]]
