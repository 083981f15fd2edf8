"""Vectorised source planning shared by every restore path.

The seed-era restore loops resolved each manifest fingerprint with its own
``has``/``locate``/``get`` calls — per-chunk Python overhead that dominates
restart time exactly the way it dominated dump time before PR 1 batched
the dump hot path.  This module is the restore-side mirror:

* :func:`plan_restore` collapses a manifest's fingerprint array to its
  distinct fingerprints in first-occurrence order (numpy dedup over the
  fixed-width digest column), resolves holders with one ``has_many`` sweep
  per live node, and assigns each remote chunk to the least-loaded live
  holder with the *same greedy policy and tie-break* as the naive
  per-chunk loop (``tests/core/reference.py``) — byte-identical in both
  data and report accounting.  The dominant case (every remote chunk replicated to
  the same holder set, which is what partner replication produces) is
  assigned in one closed-form round-robin instead of a per-chunk loop.
* :func:`cut_segments` reassembles segment structure by cutting the chunk
  list directly instead of materialising the full ``b"".join`` stream and
  slicing it, halving peak restore memory; segment boundaries are located
  with one ``searchsorted`` over the chunk-offset column.

``restore_dataset``, ``load_input`` and the service restore all plan
through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.storage.local_store import Cluster, StorageError
from repro.storage.manifest import Manifest

#: planner source marker: chunk has no live replica holder and must be
#: decoded from its erasure-coded stripe (parity redundancy mode)
RECONSTRUCT = -1


def dedup_fingerprints(raw: Sequence[Fingerprint]):
    """``(distinct, index)``: distinct fingerprints in first-occurrence
    order plus the position->distinct index array rebuilding the original.

    The dedup runs as one ``np.unique`` over the fixed-width digest column
    (void dtype, not ``S`` — numpy's S strings are null-stripped, which
    would truncate digests with trailing zero bytes).  Sequences whose
    total length does not match a uniform digest width (never produced by
    one dump, but cheap to tolerate) fall back to a dict sweep.
    """
    if not raw:
        return [], np.zeros(0, dtype=np.int64)
    digest = len(raw[0])
    joined = b"".join(raw)
    if digest and len(joined) == len(raw) * digest:
        arr = np.frombuffer(joined, dtype=np.dtype((np.void, digest)))
        uniq, first, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        if uniq.size == len(raw):
            # Already all distinct (the usual shape of a dedup'd dump's
            # manifest): first-occurrence order is the original order —
            # reuse the caller's bytes objects, skip the reorder entirely.
            distinct = raw if isinstance(raw, list) else list(raw)
            return distinct, np.arange(len(raw), dtype=np.int64)
        order = np.argsort(first, kind="stable")
        distinct = uniq[order].tolist()  # void scalars -> bytes
        remap = np.empty(len(order), dtype=np.int64)
        remap[order] = np.arange(len(order))
        return distinct, remap[inverse.reshape(-1)]
    seen: Dict[Fingerprint, int] = {}
    distinct = []
    index = np.empty(len(raw), dtype=np.int64)
    for pos, fp in enumerate(raw):
        j = seen.get(fp)
        if j is None:
            j = seen[fp] = len(distinct)
            distinct.append(fp)
        index[pos] = j
    return distinct, index


@dataclass
class RestorePlan:
    """Sources for one rank's restore, over *distinct* fingerprints.

    ``sources[j]`` is the node id serving ``fps[j]`` (the rank's own node
    for local chunks), or :data:`RECONSTRUCT` for chunks that must be
    decoded from parity stripes.  ``index`` maps every manifest position to
    its distinct index, so ``[payloads[i] for i in index]`` rebuilds the
    ordered chunk list.
    """

    fps: List[Fingerprint]
    index: np.ndarray
    sources: np.ndarray  # int64, one entry per distinct fingerprint
    own_node_id: int
    local: np.ndarray  # bool, one entry per distinct fingerprint

    @property
    def local_indices(self) -> List[int]:
        return np.flatnonzero(self.local).tolist()

    @property
    def reconstruct_indices(self) -> List[int]:
        return np.flatnonzero(self.sources == RECONSTRUCT).tolist()

    def remote_groups(self) -> Dict[int, List[int]]:
        """Distinct indices to pull, grouped by serving node.

        Within each group indices keep first-occurrence (manifest) order —
        each holder's request list is therefore sorted into the contiguous
        runs its store wrote them in, which is what makes the batched reply
        a coalesced sequential read instead of a random probe sequence.
        """
        remote = ~self.local
        remote &= self.sources != RECONSTRUCT
        groups: Dict[int, List[int]] = {}
        masked = self.sources[remote]
        if not masked.size:
            return groups
        positions = np.flatnonzero(remote)
        for node_id in np.unique(masked).tolist():
            groups[node_id] = positions[masked == node_id].tolist()
        return groups


def plan_restore(
    cluster: Cluster,
    rank: int,
    manifest: Manifest,
    *,
    allow_reconstruct: bool = True,
    eligible_nodes: Optional[Set[int]] = None,
) -> RestorePlan:
    """Resolve a manifest's fingerprints to sources in one batched pass.

    Reproduces the per-chunk greedy exactly: fingerprints are
    considered in first-occurrence order; a chunk on the rank's own live
    node is served locally, otherwise the least-loaded live holder wins
    (fewest chunks assigned so far — local assignments included — with ties
    to the lowest node id).  When every remote chunk is held by the same
    node set (the common shape partner replication produces) the greedy
    collapses to a closed-form round-robin over that set; otherwise a
    per-chunk sweep reproduces it literally.  ``eligible_nodes`` restricts
    remote candidates (the collective path can only pull from nodes that
    have a serving rank); a chunk with no candidate raises
    :class:`~repro.storage.local_store.StorageError` unless
    ``allow_reconstruct`` marks it for erasure decode.
    """
    fps, index = dedup_fingerprints(manifest.fingerprints)
    own_node = cluster.node_of(rank)
    own_id = own_node.node_id
    n = len(fps)
    if n and own_node.alive:
        local = np.fromiter(own_node.chunks.has_many(fps), dtype=bool, count=n)
    else:
        local = np.zeros(n, dtype=bool)
    sources = np.full(n, own_id, dtype=np.int64)

    remote_j = np.flatnonzero(~local)
    if remote_j.size:
        remote_fps = (
            fps if remote_j.size == n else [fps[j] for j in remote_j.tolist()]
        )
        # One has_many sweep per candidate node, in ascending node id order
        # (the tie-break below relies on it).  The rank's own node is never
        # a candidate for a remote chunk: if it held the chunk, the chunk
        # would be local — so local assignments never perturb these loads.
        row_ids: List[int] = []
        rows: List[List[bool]] = []
        for node in cluster.nodes:
            if not node.alive:
                continue
            if eligible_nodes is not None and node.node_id not in eligible_nodes:
                continue
            row_ids.append(node.node_id)
            rows.append(node.chunks.has_many(remote_fps))
        held = np.zeros((max(len(rows), 1), remote_j.size), dtype=bool)
        if rows:
            held = np.array(rows, dtype=bool)
        counts = held.sum(axis=0)

        missing = np.flatnonzero(counts == 0)
        if missing.size:
            if not allow_reconstruct:
                j = int(remote_j[missing[0]])
                raise StorageError(
                    f"rank {rank}: chunk {fps[j].hex()[:12]}... unrecoverable"
                )
            sources[remote_j[missing]] = RECONSTRUCT

        covered = np.flatnonzero(counts > 0)
        if covered.size:
            held_cols = held[:, covered]
            if bool((held_cols == held_cols[:, :1]).all()):
                # Uniform holder set: the greedy with equal starting loads
                # cycles the holders in ascending id order — assign in one
                # closed-form round-robin.
                hs = np.array(row_ids, dtype=np.int64)[held_cols[:, 0]]
                sources[remote_j[covered]] = hs[
                    np.arange(covered.size) % hs.size
                ]
            else:
                # Mixed holder sets: reproduce the per-chunk greedy.
                loads: Dict[int, int] = {}
                cols = held.T
                for pos in covered.tolist():
                    row = cols[pos]
                    best = -1
                    best_load = 0
                    for i, node_id in enumerate(row_ids):
                        if not row[i]:
                            continue
                        load = loads.get(node_id, 0)
                        if best < 0 or load < best_load:
                            best, best_load = node_id, load
                    sources[remote_j[pos]] = best
                    loads[best] = best_load + 1
    return RestorePlan(
        fps=fps, index=index, sources=sources, own_node_id=own_id, local=local
    )


def cut_segments(
    chunks: Sequence[bytes], segment_lengths: Sequence[int], rank: int
) -> List[bytes]:
    """Cut ``segment_lengths`` directly out of an ordered chunk list.

    Replaces the join-everything-then-slice reassembly: each segment is
    built from only the chunks it spans (zero-copy when a segment boundary
    falls on a chunk boundary), so peak memory is one dataset copy instead
    of two.  Segment boundaries are resolved against the chunk-offset
    column with one ``searchsorted`` instead of a per-chunk walk.  Raises
    a manifest-inconsistency :class:`StorageError` when the segment
    structure does not cover the chunk bytes.
    """
    n_chunks = len(chunks)
    lens = np.fromiter(map(len, chunks), dtype=np.int64, count=n_chunks)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if n_chunks else 0
    seg_lens = np.asarray(list(segment_lengths), dtype=np.int64)
    seg_ends = np.cumsum(seg_lens)
    covered = int(seg_ends[-1]) if seg_lens.size else 0
    if covered != total:
        raise StorageError(
            f"rank {rank}: manifest inconsistent — segments cover {covered}B "
            f"but chunks supply {total}B"
        )
    seg_starts = (seg_ends - seg_lens).tolist()
    # first[k]: first chunk overlapping segment k; last[k]: the chunk
    # holding the segment's final byte.
    # Byte b lives in the first chunk whose cumulative end exceeds b, so
    # both lookups bisect with side="right" (left would mis-place a byte
    # whose index equals a cumulative end — i.e. the first byte of the
    # next chunk).
    first = np.searchsorted(ends, seg_starts, side="right").tolist()
    last = np.searchsorted(ends, seg_ends - 1, side="right").tolist()
    starts = (ends - lens).tolist()
    ends = ends.tolist()
    seg_ends = seg_ends.tolist()

    segments: List[bytes] = []
    for k, start in enumerate(seg_starts):
        end = seg_ends[k]
        if start == end:
            segments.append(b"")
            continue
        i0, i1 = first[k], last[k]
        if i0 == i1:
            chunk = chunks[i0]
            if start == starts[i0] and end == ends[i0]:
                segments.append(chunk)
            else:
                lo = start - starts[i0]
                segments.append(bytes(memoryview(chunk)[lo : end - starts[i0]]))
            continue
        head = chunks[i0]
        if start != starts[i0]:
            head = bytes(memoryview(head)[start - starts[i0] :])
        tail = chunks[i1]
        if end != ends[i1]:
            tail = bytes(memoryview(tail)[: end - starts[i1]])
        segments.append(b"".join([head, *chunks[i0 + 1 : i1], tail]))
    return segments
