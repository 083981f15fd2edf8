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
storage: parity occupies roughly ``m/d`` of the protected data instead of
``m`` copies.  Roughly, because a group makes as many stripes as its
longest member short-list and every shard is as wide as a slot, so short
lists and short chunks are paid for as zero padding.  Bench X1 measures
both dumps.

A member ships its chunks to the holders as one frame (RPB1: an index
column, a digest column and a ragged payload column; DESIGN.md "One
frame").

Restore: a lost chunk is *decoded* — the parity record (stored with each
shard) names the stripe's member fingerprints, survivors are fetched by
content address from any live node, and the RS system is solved
(:func:`reconstruct_chunk`).  :func:`find_stripe` is the one place that
locates a chunk's stripe and counts what survives of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import frame
from repro.core.fingerprint import Fingerprint
from repro.core.frame import DIGEST, RAGGED, FrameError, Schema
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


_BUNDLE_MAGIC = b"RPB1"
_BUNDLE_SCHEMA = Schema(
    scalars=(),
    columns=(("index", "u8"), ("fps", DIGEST), ("payloads", RAGGED)),
)


def encode_parity_bundle(bundle: Sequence[Tuple[int, Fingerprint, bytes]]) -> bytes:
    """Pack a member's ``(stripe index, fingerprint, payload)`` triples as
    one RPB1 frame."""
    columns = [[triple[c] for triple in bundle] for c in range(3)]
    return frame.encode(_BUNDLE_MAGIC, _BUNDLE_SCHEMA, (), columns)


def decode_parity_bundle(blob) -> List[Tuple[int, Fingerprint, bytes]]:
    """The triples of :func:`encode_parity_bundle`, in order."""
    _scalars, (indices, fps, payloads) = frame.decode(
        _BUNDLE_MAGIC, blob, _BUNDLE_SCHEMA
    )
    if not len(indices) == len(fps) == len(payloads):
        raise FrameError(
            f"RPB1: {len(indices)} indices, {len(fps)} fingerprints and "
            f"{len(payloads)} payloads"
        )
    return list(zip(indices.tolist(), fps.tolist(), payloads))


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
    placement,
    dump_id: int,
    report,
) -> None:
    """The dump-side protocol: members ship unprotected chunks to their
    group's parity holders; holders encode and store the shards.

    Collective: every rank calls this (possibly with zero chunks to
    protect).  ``K=1`` is a no-op (nothing to protect against).
    """
    world = comm.size
    shuffle = placement.shuffle
    my_pos = placement.positions[comm.rank]
    d, m = effective_geometry(
        config.stripe_data, config.effective_k(world), world
    )
    if m == 0:
        return
    groups = group_structure(world, d, m)
    width = config.wire_payload_capacity
    codec = ReedSolomon(d + m, d)
    tag = comm.next_collective_tag()

    # Member role: send (index, fp, payload) triples to each group holder.
    _members, holders = groups[my_pos // d]
    bundle = [
        (i, fp, payload_of[fp]) for i, fp in enumerate(plan.short_fps)
    ]
    blob = encode_parity_bundle(bundle)
    bundle_bytes = sum(len(p) for _i, _f, p in bundle)
    for hpos in holders:
        comm.send(blob, shuffle[hpos], tag=tag)
        report.sent_chunks += len(bundle)
        report.sent_bytes += bundle_bytes

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
            triples = decode_parity_bundle(comm.recv(shuffle[mpos], tag=tag))
            incoming[mpos] = {i: (fp, payload) for i, fp, payload in triples}
            report.received_chunks += len(triples)
            report.received_bytes += sum(len(p) for _i, _f, p in triples)
        # A member's bundle is its whole short-list: one stripe per entry of
        # the longest.
        n_stripes = max(map(len, incoming.values()), default=0)
        member_ranks = tuple(shuffle[mpos] for mpos in g_members)
        for s in range(n_stripes):
            # A member whose short-list ended, and the missing members of a
            # short tail group, are known-zero NO_CHUNK shards.
            entries = [incoming[mpos].get(s, (NO_CHUNK, b"")) for mpos in g_members]
            entries += [(NO_CHUNK, b"")] * (d - len(entries))
            shards = [payload.ljust(width, b"\x00") for _fp, payload in entries]
            shard = parity_shard(codec, my_shard_index, shards)
            node.put_parity(
                ParityRecord(
                    dump_id=dump_id,
                    stripe_index=s,
                    group_members=member_ranks,
                    fingerprints=tuple(fp for fp, _payload in entries),
                    chunk_sizes=tuple(len(payload) for _fp, payload in entries),
                    stripe_data=d,
                    stripe_parity=m,
                    shard_index=my_shard_index,
                    shard=shard,
                )
            )
            report.parity_stripes += 1
    comm.trace.annotate(stripes=report.parity_stripes)
    comm.trace.end_span(encode_span)


@dataclass(frozen=True)
class Stripe:
    """What survives of the stripe covering one chunk (:func:`find_stripe`)."""

    #: the first live parity record covering the chunk
    anchor: ParityRecord
    #: the chunk's original payload size
    size: int
    #: shard-holding nodes the stripe can still lose before it stops
    #: decoding; negative when it already cannot decode
    margin: int
    #: per member: a live node holding its chunk, None when the chunk has no
    #: live holder or the member is a ``NO_CHUNK`` pad
    sources: Tuple[Optional[int], ...]
    #: live parity shards by shard index
    shards: Dict[int, bytes]


def find_stripe(
    cluster: Cluster, fp: Fingerprint, dump_id: int
) -> Optional[Stripe]:
    """The stripe covering ``fp`` in ``dump_id``, or ``None`` when no live
    parity record covers it.  Reads no chunk payload.

    A margin of ``m`` (= ``stripe_parity``) is a fully intact stripe — the
    same failure tolerance as K-replication — and ``margin >= 0`` is exactly
    when :func:`reconstruct_chunk` succeeds.  The count is conservative:
    every available shard unit (member chunk with a live holder, distinct
    live parity shard, known-zero pad) contributes one, even if a member
    chunk happens to have extra natural replicas.
    """
    anchor: Optional[ParityRecord] = None
    for node in cluster.alive_nodes:
        anchor = node.find_parity(fp, dump_id)
        if anchor is not None:
            break
    if anchor is None:
        return None
    members = [f for f in anchor.fingerprints if f != NO_CHUNK]
    first_holder = {
        f: holders[0] for f, holders in zip(members, map(cluster.locate, members))
        if holders
    }
    available = sum(f == NO_CHUNK or f in first_holder for f in anchor.fingerprints)
    key = anchor.stripe_key()
    shards = {
        record.shard_index: record.shard
        for node in cluster.alive_nodes
        for record in node.parity_for_stripe(key)
    }
    return Stripe(
        anchor=anchor,
        size=anchor.chunk_sizes[anchor.fingerprints.index(fp)],
        margin=available + len(shards) - anchor.stripe_data,
        sources=tuple(map(first_holder.get, anchor.fingerprints)),
        shards=shards,
    )


def reconstruct_chunk(
    cluster: Cluster,
    fp: Fingerprint,
    dump_id: int,
) -> bytes:
    """Rebuild a chunk with no live replica from its cross-rank stripe.

    Finds the stripe with :func:`find_stripe`, fetches its surviving data
    chunks (content-addressed, from any live holder), and RS-decodes them
    with the live parity shards.  Raises :class:`StorageError` when fewer
    than ``stripe_data`` shards survive.
    """
    stripe = find_stripe(cluster, fp, dump_id)
    if stripe is None:
        raise StorageError(
            f"chunk {fp.hex()[:12]}...: no live parity covers it"
        )
    anchor = stripe.anchor
    d = anchor.stripe_data
    if stripe.margin < 0:
        raise StorageError(
            f"chunk {fp.hex()[:12]}...: stripe has only {d + stripe.margin} of "
            f"{d} shards alive"
        )
    width = anchor.shard_width
    available: Dict[int, bytes] = {}
    for pos, (member_fp, source) in enumerate(
        zip(anchor.fingerprints, stripe.sources)
    ):
        if member_fp == NO_CHUNK:
            available[pos] = b"\x00" * width  # known-zero pad
        elif source is not None:
            # A stored payload is a bytes-like, not always ``bytes``.
            payload = bytes(cluster.nodes[source].chunks.get(member_fp))
            available[pos] = payload.ljust(width, b"\x00")
    for index, shard in stripe.shards.items():
        available[d + index] = shard
    data = ReedSolomon(d + anchor.stripe_parity, d).decode(available)
    pos = anchor.fingerprints.index(fp)
    return data[pos][: stripe.size]
