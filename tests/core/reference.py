"""Executable reference for the dump's local dedup, replication plan and
wire records, the rank shuffle and both restore paths.

The per-chunk loops the batched ``repro.core`` replaced, kept naive on
purpose: one hash and one dict probe per chunk, one view lookup per
fingerprint, one ``bytes`` join per window slot, one
``has``/``locate``/``get`` per manifest entry.  The equivalence suites
(``test_hotpath_equivalence.py``, ``test_local_dedup.py``,
``test_planner.py``, ``test_shuffle.py``, ``test_wire.py``,
``test_restore_equivalence.py``) hold the production functions equal to
these.  Whole-dump decisions have
an independent oracle already — ``repro.sim.simulate_dump`` — so there is
no reference dump here.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.chunking import Dataset
from repro.core.collective_restore import CollectiveRestoreReport
from repro.core.local_dedup import LocalIndex
from repro.core.planner import ReplicationPlan
from repro.core.restore import RestoreReport
from repro.erasure.ec_dump import reconstruct_chunk
from repro.storage.local_store import StorageError

_LEN = struct.Struct("<I")


def local_dedup(dataset, fingerprinter, chunk_size, chunker=None) -> LocalIndex:
    """Chunk + fingerprint + collapse duplicates, one chunk at a time.

    ``chunker`` (segment bytes -> iterable of chunks) replaces the fixed
    ``chunk_size`` grid, e.g. ``DumpConfig.make_chunker().split``.
    """
    if chunker is None:
        chunks = dataset.chunks(chunk_size)
    else:
        chunks = (
            chunk
            for i in range(dataset.num_segments)
            for chunk in chunker(bytes(dataset.segment(i)))
        )
    index = LocalIndex()
    for chunk in chunks:
        fp = fingerprinter(chunk)
        index.order.append(fp)
        if fp in index.counts:
            index.counts[fp] += 1
        else:
            index.counts[fp] = 1
            index.chunk_sizes[fp] = len(chunk)
            index.unique[fp] = chunk
    return index


def first_occurrences(
    digests: Sequence[bytes],
) -> Tuple[List[int], List[int], List[int]]:
    """``repro.core.fingerprint.first_occurrences`` over a list of digests,
    one dict probe per row: first row of each distinct digest, its
    multiplicity, and every row's index into the first list."""
    slot_of: Dict[bytes, int] = {}
    first: List[int] = []
    counts: List[int] = []
    inverse: List[int] = []
    for row, digest in enumerate(digests):
        if digest not in slot_of:
            slot_of[digest] = len(first)
            first.append(row)
            counts.append(0)
        counts[slot_of[digest]] += 1
        inverse.append(slot_of[digest])
    return first, counts, inverse


def build_plan(
    rank: int,
    local_index: LocalIndex,
    view,
    k: int,
    world_size: int,
    dedup_local: bool = True,
    node_of=None,
    topup: bool = True,
    alive: Optional[Sequence[bool]] = None,
) -> ReplicationPlan:
    """``repro.core.planner.build_plan``, one ``view.get`` per fingerprint."""
    k_eff = min(k, world_size)
    nparts = k_eff - 1
    plan = ReplicationPlan(rank=rank, k=k_eff)
    plan.partner_chunks = [[] for _ in range(nparts)]

    degraded = alive is not None and not all(alive)
    if degraded:
        n_live = sum(1 for a in alive if a)
        self_alive = bool(alive[rank])
        max_parts = min(nparts, n_live - (1 if self_alive else 0))
    else:
        self_alive = True
        max_parts = nparts

    fps = local_index.unique_fingerprints() if dedup_local else list(local_index.order)
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
                seeder = live_designated[0] if live_designated else ranks[0]
                if rank == seeder:
                    for p in range(max_parts):
                        plan.partner_chunks[p].append(fp)
            elif ranks.index(rank) == 0:
                plan.short_fps.append(fp)
            continue
        d = len(ranks)
        coverage = len({node_of[r] for r in ranks}) if node_of is not None else d
        if rank not in ranks and coverage >= k_eff:
            plan.discarded_fps.append(fp)
            continue
        plan.store_fps.append(fp)
        if coverage >= k_eff or rank not in ranks:
            continue
        j = ranks.index(rank)
        if topup:
            # round robin: copy c of the K - coverage goes to designee c % d
            extra = k_eff - coverage
            copies = (extra - j + d - 1) // d if extra > 0 and j < d else 0
            for p in range(min(copies, nparts)):
                plan.partner_chunks[p].append(fp)
        elif j == 0:
            plan.short_fps.append(fp)
    return plan


def rank_shuffle(send_totals: Sequence[int], k: int) -> List[int]:
    """Algorithm 2 as the paper states it, with no node map: repeatedly
    emit the heaviest remaining rank, then the ``k-1`` lightest."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(send_totals)
    order = sorted(range(n), key=lambda r: (-send_totals[r], r))
    shuffle: List[int] = []
    head, tail = 0, n - 1
    while head <= tail:
        shuffle.append(order[head])
        head += 1
        for _ in range(k - 1):
            if head > tail:
                break
            shuffle.append(order[tail])
            tail -= 1
    return shuffle


def senders_to(
    position: int,
    shuffle: Sequence[int],
    k: int,
    alive: Optional[Sequence[bool]] = None,
) -> List[int]:
    """Every rank whose ``partners_of`` list includes the rank at
    ``position``, in increasing distance order: the mirror of the partner
    walk.  Walking backward from a live target, the sender at backward
    distance ``b`` uses its partner slot ``j = (live ranks strictly
    between) + 1``; the walk ends once ``j`` would exceed ``min(k, N) - 1``.
    Dead senders are included (they ship their data); a dead target gets
    an empty list."""
    n = len(shuffle)
    if alive is not None and not alive[shuffle[position]]:
        return []
    nparts = min(k, n) - 1
    senders: List[int] = []
    live_between = 0
    for back in range(1, n):
        if live_between + 1 > nparts:
            break
        sender = shuffle[(position - back) % n]
        senders.append(sender)
        if alive is None or alive[sender]:
            live_between += 1
    return senders


def encode_record(fp: bytes, chunk: bytes, chunk_size: int) -> bytes:
    """One window slot: fingerprint | u32 length | payload | zero padding."""
    if len(chunk) > chunk_size:
        raise ValueError(f"chunk of {len(chunk)}B exceeds the slot payload size")
    return b"".join(
        (fp, _LEN.pack(len(chunk)), chunk, b"\x00" * (chunk_size - len(chunk)))
    )


def decode_region(
    buffer: bytes, digest_size: int, chunk_size: int, start_slot: int, slot_count: int
) -> List[Tuple[bytes, bytes]]:
    """Every ``(fingerprint, payload)`` of a slot range, duplicates included."""
    slot = digest_size + _LEN.size + chunk_size
    out = []
    for i in range(start_slot, start_slot + slot_count):
        record = bytes(buffer[i * slot : (i + 1) * slot])
        if len(record) < slot:
            raise ValueError(f"window truncated in slot {i}")
        (length,) = _LEN.unpack_from(record, digest_size)
        if length > chunk_size:
            raise ValueError(f"corrupt record in slot {i}: length {length}")
        hdr = digest_size + _LEN.size
        out.append((record[:digest_size], record[hdr : hdr + length]))
    return out


def decode_region_unique(
    buffer: bytes, digest_size: int, chunk_size: int, start_slot: int, slot_count: int
) -> Tuple[List[Tuple[bytes, bytes]], List[int], int]:
    """``repro.core.wire.decode_region_unique``, one record at a time: each
    fingerprint's first payload and multiplicity, in first-occurrence order,
    and every record's length.  A slot whose length differs from its
    fingerprint's first slot raises, naming the slot."""
    first: Dict[bytes, Tuple[int, bytes]] = {}
    mults: Dict[bytes, int] = {}
    nbytes = 0
    records = decode_region(buffer, digest_size, chunk_size, start_slot, slot_count)
    for slot, (fp, payload) in enumerate(records, start_slot):
        nbytes += len(payload)
        if fp not in first:
            first[fp] = slot, payload
            mults[fp] = 1
            continue
        head, seen = first[fp]
        if len(payload) != len(seen):
            raise ValueError(
                f"corrupt record in slot {slot}: length {len(payload)}, but slot "
                f"{head} carries its fingerprint with length {len(seen)}"
            )
        mults[fp] += 1
    pairs = [(fp, payload) for fp, (_slot, payload) in first.items()]
    return pairs, list(mults.values()), nbytes


def _cut(chunks: List[bytes], segment_lengths) -> Dataset:
    stream = b"".join(chunks)
    segments, pos = [], 0
    for length in segment_lengths:
        segments.append(stream[pos : pos + length])
        pos += length
    assert pos == len(stream), "manifest segments do not cover the chunk bytes"
    return Dataset(segments)


def _decoder(manifest):
    if not manifest.compressed:
        return lambda frame: frame
    from repro.compress.codecs import decode_auto

    return decode_auto


def restore_from_manifest(cluster, rank, manifest) -> Tuple[Dataset, RestoreReport]:
    """Per-chunk restore: own node first, else the least-loaded live holder
    (fewest chunks served so far, ties to the lowest node id), else parity."""
    report = RestoreReport(rank=rank, dump_id=manifest.dump_id)
    decode = _decoder(manifest)
    own = cluster.node_of(rank)
    served = report.source_nodes
    cache: Dict[bytes, bytes] = {}
    for fp in manifest.fingerprints:
        if fp in cache:
            continue
        if own.alive and own.chunks.has(fp):
            frame = own.chunks.get(fp)
            report.local_chunks += 1
            served[own.node_id] = served.get(own.node_id, 0) + 1
        else:
            holders = cluster.locate(fp)
            if holders:
                source = min(holders, key=lambda h: (served.get(h, 0), h))
                frame = cluster.nodes[source].chunks.get(fp)
                served[source] = served.get(source, 0) + 1
            else:
                frame = reconstruct_chunk(cluster, fp, manifest.dump_id)
                report.decoded_chunks += 1
            report.remote_chunks += 1
            report.remote_bytes += len(frame)
        cache[fp] = decode(frame)
    report.total_bytes = sum(manifest.segment_lengths)
    chunks = [cache[fp] for fp in manifest.fingerprints]
    return _cut(chunks, manifest.segment_lengths), report


def restore_dataset(cluster, rank, dump_id=0) -> Tuple[Dataset, RestoreReport]:
    return restore_from_manifest(cluster, rank, cluster.find_manifest(rank, dump_id))


def load_input(
    cluster, world: int, dump_id=0
) -> List[Tuple[Dataset, CollectiveRestoreReport]]:
    """Every rank's collective restore, one rank after the other and with
    no communicator: a pulled chunk is read straight from the holder node
    and charged to the rank that serves that node (the lowest one on it)."""
    serving: Dict[int, int] = {}
    for peer in range(world):
        serving.setdefault(cluster.rank_to_node[peer], peer)
    reports = [CollectiveRestoreReport(rank=r, dump_id=dump_id) for r in range(world)]
    datasets = []
    for rank, report in enumerate(reports):
        manifest = cluster.find_manifest(rank, dump_id)
        decode = _decoder(manifest)
        own = cluster.node_of(rank)
        loads: Dict[int, int] = {}
        cache: Dict[bytes, bytes] = {}
        for fp in manifest.fingerprints:
            if fp in cache:
                continue
            if own.alive and own.chunks.has(fp):
                source = own.node_id
                report.local_chunks += 1
            else:
                holders = [h for h in cluster.locate(fp) if h in serving]
                if not holders:
                    raise StorageError(f"rank {rank}: chunk {fp.hex()} unrecoverable")
                source = min(holders, key=lambda h: (loads.get(h, 0), h))
            loads[source] = loads.get(source, 0) + 1
            frame = cluster.nodes[source].chunks.get(fp)
            if source != own.node_id:
                peer = serving[source]
                report.pulled_chunks += 1
                report.pulled_bytes += len(frame)
                report.pulled_from[peer] = report.pulled_from.get(peer, 0) + 1
                reports[peer].served_chunks += 1
                reports[peer].served_bytes += len(frame)
            cache[fp] = decode(frame)
        report.total_bytes = sum(manifest.segment_lengths)
        chunks = [cache[fp] for fp in manifest.fingerprints]
        datasets.append(_cut(chunks, manifest.segment_lengths))
    return list(zip(datasets, reports))
