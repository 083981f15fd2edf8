"""Columnar source planning shared by every restore path.

A restore is planned over the manifest's *distinct* fingerprints, as
columns, with no Python loop over chunks except the mixed-holder greedy:

* :func:`dedup_fingerprints` collapses the manifest's fingerprint list to
  its distinct fingerprints in first-occurrence order through
  :func:`~repro.core.fingerprint.first_occurrences` (one sort of the
  digest column, the same one local dedup and the window decode use), and
  returns the position -> distinct ``index`` column that rebuilds it.
* :func:`plan_restore` resolves every chunk on the rank's own live node
  with one ``has_many``; the rest resolve with one
  :meth:`~repro.storage.local_store.Cluster.holder_column` sweep, whose
  holder sets ``eligible_nodes`` masks.  Each remote chunk goes to the
  least-loaded holder with the *same greedy policy and tie-break* as the
  naive per-chunk loop (``tests/core/reference.py``): one closed-form
  round-robin when every remote chunk has the same holder set (the shape
  partner replication produces), else the greedy over one candidate tuple
  per distinct holder set.
* :meth:`RestorePlan.by_source` lays the distinct fingerprints out grouped
  by source — own node, parity reconstruction, remote holders ascending —
  so a restore reads one ``get_many`` per source over a slice of one
  list, concatenates the frames in that order and puts them in manifest
  order with one gather through the inverse permutation.
* :func:`cut_segments` reassembles segment structure by cutting the chunk
  list directly instead of materialising the full ``b"".join`` stream and
  slicing it, halving peak restore memory; segment boundaries are located
  with one ``searchsorted`` over the chunk-offset column.

``restore_dataset``, the chain's ``restore_epoch`` (the service restores
through it) and the collective ``load_input`` all plan through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint, first_occurrences
from repro.storage.local_store import Cluster, HolderColumn, StorageError
from repro.storage.manifest import Manifest

#: planner source marker: chunk has no live replica holder and must be
#: decoded from its erasure-coded stripe (parity redundancy mode)
RECONSTRUCT = -1

#: ``(source, start, stop)``: one source's slice of a grouped column
Run = Tuple[int, int, int]


def dedup_fingerprints(raw: Sequence[Fingerprint]):
    """``(distinct, index)``: distinct fingerprints in first-occurrence
    order plus the position->distinct index array rebuilding the original.

    A list of one digest width is read as one ``np.void`` column and
    collapsed by :func:`~repro.core.fingerprint.first_occurrences`; the
    distinct values are the caller's own ``bytes`` objects at the first
    rows, so a digest with trailing zero bytes survives (an ``S`` view's
    ``.tolist()`` would strip them).  When nothing repeats, ``distinct`` is
    the caller's list and ``index`` an ``arange``.  Mixed widths (never
    produced by one dump, but cheap to tolerate) fall back to a dict sweep.
    """
    if not raw:
        return [], np.zeros(0, dtype=np.int64)
    digest = len(raw[0])
    joined = b"".join(raw)
    if digest and len(joined) == len(raw) * digest:
        column = np.frombuffer(joined, dtype=np.dtype((np.void, digest)))
        first, _counts, inverse = first_occurrences(column)
        if first.size == len(raw):
            distinct = raw if isinstance(raw, list) else list(raw)
            return distinct, np.arange(len(raw), dtype=np.int64)
        return list(map(raw.__getitem__, first.tolist())), inverse
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

    def _runs(self) -> Tuple[np.ndarray, List[Run]]:
        """``(order, runs)``: the distinct indices grouped by source — own
        node, :data:`RECONSTRUCT`, then holders ascending, each group in
        first-occurrence order (one stable sort) — and one ``(source,
        start, stop)`` slice of ``order`` per group."""
        key = np.where(self.local, -2, self.sources)
        order = np.argsort(key, kind="stable")
        if not order.size:
            return order, []
        cuts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
        sources = self.sources[order[[0, *cuts]]].tolist()
        return order, list(zip(sources, [0, *cuts], [*cuts, order.size]))

    def by_source(self) -> Tuple[List[Fingerprint], List[Run], np.ndarray]:
        """``(fps, runs, gather)``: the distinct fingerprints grouped by
        source, one ``(source, start, stop)`` slice of them per source, and
        the manifest-order gather.

        A restore reads ``fps[start:stop]`` from each source in one batch
        and concatenates the frames run by run; ``frames[gather[p]]`` is
        then manifest position ``p``'s frame.  Within a run fingerprints
        keep first-occurrence (manifest) order — the contiguous runs the
        holder's store wrote them in — so a batched read is sequential,
        not a random probe.
        """
        order, runs = self._runs()
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        fps = list(map(self.fps.__getitem__, order.tolist()))
        return fps, runs, position[self.index]

    def remote_groups(self) -> Dict[int, List[int]]:
        """Distinct indices to pull, keyed by serving node (ascending),
        each group in first-occurrence order."""
        order, runs = self._runs()
        return {
            source: order[start:stop].tolist()
            for source, start, stop in runs
            if source not in (self.own_node_id, RECONSTRUCT)
        }


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
    (fewest chunks assigned so far, with ties to the lowest node id).  A
    remote chunk's holders never include the rank's own node (it would be
    local), so local assignments never perturb those loads.  When every
    remote chunk has the same holder set the greedy is a round-robin over
    that set in ascending id order; otherwise it runs chunk by chunk over
    one candidate tuple per distinct holder set.  ``eligible_nodes``
    restricts remote candidates (the collective path can only pull from
    nodes that have a serving rank); a chunk with no candidate raises
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
        column = cluster.holder_column(
            fps if remote_j.size == n else list(compress(fps, (~local).tolist()))
        )
        if eligible_nodes is not None:
            allowed = sum(1 << node_id for node_id in set(eligible_nodes))
            masked = [mask & allowed for mask in column.masks]
            # Masking may merge two sets: renumber so equal sets share an id.
            renumber = {mask: i for i, mask in enumerate(dict.fromkeys(masked))}
            ids = np.fromiter(map(renumber.__getitem__, masked), np.intp, len(masked))
            column = HolderColumn(ids[column.ids], list(renumber))
        holders = column.sets()  # one ascending candidate tuple per set
        set_ids = column.ids
        empty = np.array([not h for h in holders], dtype=bool)[set_ids]

        missing = np.flatnonzero(empty)
        if missing.size:
            if not allow_reconstruct:
                j = int(remote_j[missing[0]])
                raise StorageError(
                    f"rank {rank}: chunk {fps[j].hex()[:12]}... unrecoverable"
                )
            sources[remote_j[missing]] = RECONSTRUCT

        covered = np.flatnonzero(~empty)
        if covered.size:
            covered_ids = set_ids[covered]
            if bool((covered_ids == covered_ids[0]).all()):
                # Uniform holder set: the greedy with equal starting loads
                # cycles the holders in ascending id order.
                hs = np.array(holders[covered_ids[0]], dtype=np.int64)
                sources[remote_j[covered]] = hs[np.arange(covered.size) % hs.size]
            else:
                # Mixed holder sets: the per-chunk greedy.  ``min`` keeps the
                # first of equal loads, the lowest id of an ascending tuple.
                load = [0] * len(cluster.nodes)
                chosen = []
                for set_id in covered_ids.tolist():
                    best = min(holders[set_id], key=load.__getitem__)
                    load[best] += 1
                    chosen.append(best)
                sources[remote_j[covered]] = chosen
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
