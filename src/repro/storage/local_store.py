"""Content-addressed node-local chunk stores and the cluster that groups them.

Accounting distinguishes *logical* bytes (what the application asked to
store — the paper's replication workload) from *physical* bytes (what
actually lands on the device).  A deduplicating store writes each distinct
fingerprint once, so physical <= logical; the no-dedup strategy opts out of
store-side dedup (``dedup=False``) so both counters advance together, which
is exactly how Figure 3(a)'s "total size of unique content" baseline is
defined.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from itertools import compress
from operator import itemgetter, mul, not_
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.storage.manifest import Manifest


#: The columns of a ``(fingerprint, payload[, count])`` batch item.
_FP, _PAYLOAD, _COUNT = itemgetter(0), itemgetter(1), itemgetter(2)

#: A stored chunk payload: a read-only bytes-like.  ``bytes`` when a put
#: copied it, a ``memoryview`` slice of an adopted mapping when a delta
#: brought it (DESIGN.md "Merge-back: one write, one mapping").  ``len``,
#: slicing, ``b"".join``, ``hashlib``, ``np.frombuffer`` and ``==`` against
#: ``bytes`` work on both; ``bytes`` methods (``ljust``, ``find``) do not.
Payload = Union[bytes, memoryview]


class StorageError(Exception):
    """Raised on access to failed nodes or missing chunks/manifests."""


class StoreDelta:
    """Additive changes to one :class:`ChunkStore` since its last ``mark()``.

    ``entries`` is a list of ``(fingerprint, payload_or_None, put_count)``
    triples — payload is shipped only for fingerprints the marking side did
    not already hold.  Replayed through put semantics by ``apply_delta``, so
    counters (logical/physical/put_count) come out exactly as if the puts
    had happened on the receiving store directly; deltas from several ranks
    therefore merge commutatively even when they overlap on a fingerprint.

    A delta owns its payloads and they never change: each is ``bytes`` or a
    read-only view of a buffer nothing writes to again (the mapped result
    segment of a forked rank).  That is the contract that lets
    ``apply_delta`` keep them instead of copying them.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: List[Tuple[Fingerprint, Optional[Payload], int]]):
        self.entries = entries

    def __bool__(self) -> bool:
        return bool(self.entries)


class NodeDelta:
    """Changes to one :class:`NodeStorage` since ``mark()``: chunk-store
    delta, newly stored manifests, appended parity records and (if toggled)
    the liveness flag."""

    __slots__ = ("chunks", "manifests", "parity", "alive")

    def __init__(self, chunks, manifests, parity, alive) -> None:
        self.chunks = chunks
        self.manifests = manifests
        self.parity = parity
        self.alive = alive

    def __bool__(self) -> bool:
        return bool(
            self.chunks or self.manifests or self.parity or self.alive is not None
        )


class ClusterDelta:
    """Per-node deltas of one SPMD rank's cluster copy (process backend).

    Forked ranks write to *copies* of the in-memory cluster; this object is
    what a rank ships back so the parent can fold the writes into the real
    one (see :func:`repro.core.runner.run_collective`), as one RCD1 frame
    (:mod:`repro.storage.delta_codec`).  All contents are additive, so
    applying every rank's delta in any order reproduces the state a
    shared-memory (thread) run would have produced.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: Dict[int, NodeDelta]) -> None:
        self.nodes = nodes

    def __bool__(self) -> bool:
        return bool(self.nodes)


class ChunkStore:
    """One node-local device: fingerprint-addressed chunk storage.

    Parameters
    ----------
    dedup:
        When True (default) a fingerprint is written physically once and
        reference-counted.  When False every put writes physically (models
        the no-dedup strategy's raw stream).

    Every mutation holds the store's lock for the whole call: rank threads
    that share a node (``Cluster(rank_to_node=...)``) write to one store,
    and a refcount read-modify-write must not interleave with another.
    Reads take no lock; a new fingerprint's payload is stored before its
    refcount, so a reader that sees the refcount finds the payload.
    """

    def __init__(self, dedup: bool = True) -> None:
        self.dedup = dedup
        self._chunks: Dict[Fingerprint, Payload] = {}
        self._refcounts: Dict[Fingerprint, int] = {}
        self.logical_bytes = 0
        self.physical_bytes = 0
        self.put_count = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_lock"]  # a lock neither pickles nor deep-copies
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- chunk operations --------------------------------------------------------
    def _bump(
        self, fp: Fingerprint, payload: Optional[Payload], n: int, adopt: bool = False
    ) -> int:
        """Add ``n`` references to a fingerprint — the one mutation primitive.

        :meth:`put` and delta replay funnel through here, and the batch
        puts (:meth:`_put_columns`) are held equal to a loop of :meth:`put`
        by tests, so alternative layouts — the sharded store — cannot drift
        from the flat accounting rules; callers hold the store's lock.  ``payload`` may be None only when the fingerprint
        is already stored (the size is then looked up).  A new payload is
        copied unless the caller vouches with ``adopt`` that it is immutable
        and the store may keep the object it was given; only
        :meth:`apply_delta` does (see :class:`StoreDelta`).
        Never infer that from ``memoryview.readonly``: an application hands
        out read-only views of memory it rewrites in place.  Returns the
        number of chunks physically written.
        """
        refcounts = self._refcounts
        if fp in refcounts:
            size = len(payload) if payload is not None else self.nbytes_of(fp)
            refcounts[fp] += n
            written = 0 if self.dedup else n
            if not self.dedup:
                self.physical_bytes += n * size
        else:
            if payload is None:
                raise StorageError(
                    f"chunk {fp.hex()[:12]}... referenced without a payload "
                    "and this store never held it"
                )
            size = len(payload)
            self._chunks[fp] = payload if adopt else bytes(payload)
            refcounts[fp] = n
            written = 1 if self.dedup else n
            self.physical_bytes += size if self.dedup else n * size
        self.put_count += n
        self.logical_bytes += n * size
        return written

    def put(self, fp: Fingerprint, data: bytes) -> bool:
        """Store a chunk; returns True if it was physically written."""
        with self._lock:
            return self._bump(fp, data, 1) > 0

    def put_many(self, pairs: Iterable[Tuple[Fingerprint, bytes]]) -> int:
        """Batch :meth:`put`; returns how many chunks were physically written.

        Semantically identical to calling :meth:`put` per pair (same stored
        payloads, refcounts, insertion order and counters); the commit runs
        over the fingerprint and payload columns (:meth:`_put_columns`).
        This sits on the dump's write phase, which commits every stored
        chunk of a checkpoint.
        """
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        return self._put_columns(
            list(map(_FP, pairs)), list(map(_PAYLOAD, pairs)), None
        )

    def put_counted(
        self, items: Iterable[Tuple[Fingerprint, bytes, int]]
    ) -> int:
        """Batch :meth:`put` over pre-collapsed duplicates.

        Each item is a ``(fingerprint, payload, multiplicity)`` triple —
        e.g. from :func:`~repro.core.wire.decode_region_unique` — and
        accounts like ``multiplicity`` identical puts of that payload; a
        fingerprint may come back in a later item.  Returns the number of
        chunks physically written.
        """
        items = items if isinstance(items, (list, tuple)) else list(items)
        return self._put_columns(
            list(map(_FP, items)), list(map(_PAYLOAD, items)), list(map(_COUNT, items))
        )

    def _put_columns(
        self,
        fps: List[Fingerprint],
        payloads: List[Payload],
        counts: Optional[List[int]],
    ) -> int:
        """``counts[i]`` puts of ``payloads[i]`` under ``fps[i]`` (one put
        each when ``counts`` is None), as columns.

        Every fingerprint of the call enters through one ``dict.update``
        over zipped columns, in first-occurrence order, with a copy of its
        first payload; the few already stored then get their own payload
        back and take a per-item increment.  Accounting is the column sums,
        exactly what one :meth:`_bump` per item adds up to.
        """
        if not fps:
            return 0
        totals = Counter(fps)
        if counts is None:
            logical, puts = sum(map(len, payloads)), len(fps)
        else:
            logical, puts = sum(map(mul, map(len, payloads), counts)), sum(counts)
            for fp, count in compress(zip(fps, counts), map((1).__ne__, counts)):
                totals[fp] += count - 1
        if len(totals) < len(fps):  # repeats: each fingerprint's first payload
            first: Dict[Fingerprint, Payload] = {}
            deque(map(first.setdefault, fps, payloads), maxlen=0)
            fps, payloads = list(first), list(first.values())
        refcounts, chunks = self._refcounts, self._chunks
        with self._lock:
            stored = refcounts.keys() & totals.keys()
            kept = [(fp, chunks[fp]) for fp in stored]
            bumped = [(fp, refcounts[fp] + totals[fp]) for fp in stored]
            # payloads before refcounts: a reader that sees one finds the other
            chunks.update(zip(fps, map(bytes, payloads)))
            stored_bytes = sum(map(len, map(chunks.__getitem__, stored)))
            chunks.update(kept)
            refcounts.update(totals)
            refcounts.update(bumped)
            if self.dedup:
                physical = sum(map(len, payloads)) - stored_bytes
                written = len(totals) - len(stored)
            else:
                physical = logical
                written = puts
            self.put_count += puts
            self.logical_bytes += logical
            self.physical_bytes += physical
            return written

    def discard(self, fp: Fingerprint) -> int:
        """Physically drop a fingerprint: payload, refcount and accounting.

        The inverse of :meth:`_bump` at full strength — the service-level GC
        (and the dst fault injector) removes unreferenced chunks through
        here.  ``put_count`` stays cumulative.  Returns the payload size
        reclaimed, 0 if the fingerprint was absent.
        """
        with self._lock:
            count = self._refcounts.pop(fp, 0)
            if not count:
                return 0
            size = self.nbytes_of(fp)
            self._chunks.pop(fp, None)
            self.physical_bytes -= size if self.dedup else count * size
            self.logical_bytes -= count * size
            return size

    def get(self, fp: Fingerprint) -> Payload:
        try:
            return self._chunks[fp]
        except KeyError:
            raise StorageError(f"chunk {fp.hex()[:12]}... not in store") from None

    def get_many(self, fps: Iterable[Fingerprint]) -> List[Payload]:
        """Batch :meth:`get`: payloads in request order.

        One dict sweep; a miss falls back to per-fingerprint :meth:`get`
        for the exact missing-chunk error.
        """
        fps = fps if isinstance(fps, (list, tuple)) else list(fps)
        chunks = self._chunks
        try:
            return [chunks[fp] for fp in fps]
        except KeyError:
            return [self.get(fp) for fp in fps]

    def has_many(self, fps: Iterable[Fingerprint]) -> List[bool]:
        """Batch :meth:`has`: one membership flag per fingerprint, in order."""
        return list(map(self._refcounts.__contains__, fps))

    def nbytes_of(self, fp: Fingerprint) -> int:
        """Stored payload size of a chunk (no copy for in-memory stores)."""
        data = self._chunks.get(fp)
        if data is not None:
            return len(data)
        return len(self.get(fp))

    def has(self, fp: Fingerprint) -> bool:
        return fp in self._refcounts

    def refcount(self, fp: Fingerprint) -> int:
        return self._refcounts.get(fp, 0)

    def fingerprints(self) -> Iterable[Fingerprint]:
        return self._refcounts.keys()

    @property
    def chunk_count(self) -> int:
        """Distinct fingerprints stored."""
        return len(self._refcounts)

    def store_stats(self) -> Dict[str, object]:
        """Point-in-time accounting snapshot (surfaced via ``repro.obs``).

        ``dedup_ratio`` is the fraction of logical bytes that never hit the
        device; ``shard_skew`` is max/mean chunks per shard (1.0 for the
        flat store, which is a single shard by definition).
        """
        logical = self.logical_bytes
        physical = self.physical_bytes
        chunks = self.chunk_count
        return {
            "chunks": chunks,
            "logical_bytes": logical,
            "physical_bytes": physical,
            "put_count": self.put_count,
            "dedup_ratio": (1.0 - physical / logical) if logical else 0.0,
            "shard_count": 1,
            "shard_chunks": [chunks],
            "shard_skew": 1.0 if chunks else 0.0,
        }

    def clear(self) -> None:
        with self._lock:
            self._chunks.clear()
            self._refcounts.clear()
            self.logical_bytes = 0
            self.physical_bytes = 0
            self.put_count = 0

    # -- delta merge-back (process backend) -------------------------------------
    def mark(self) -> None:
        """Snapshot refcounts so :meth:`collect_delta` can diff against them.

        Stores are append-only during a run (no chunk deletion exists), so a
        refcount snapshot fully determines the additive delta.
        """
        self._marked = dict(self._refcounts)

    def collect_delta(self) -> StoreDelta:
        """Everything put since :meth:`mark`, as replayable put entries."""
        marked = getattr(self, "_marked", None)
        if marked is None:
            raise StorageError("collect_delta() without a prior mark()")
        entries: List[Tuple[Fingerprint, Optional[Payload], int]] = []
        for fp, count in self._refcounts.items():
            base = marked.get(fp, 0)
            if count != base:
                payload = None if base else self._chunks.get(fp)
                entries.append((fp, payload, count - base))
        return StoreDelta(entries)

    def apply_delta(self, delta: StoreDelta) -> None:
        """Replay a delta's entries with :meth:`put` accounting semantics.
        The payloads are kept, not copied (the :class:`StoreDelta`
        contract): a view among them keeps its buffer alive until the last
        chunk cut from it is discarded or the store is cleared."""
        with self._lock:
            for fp, payload, count in delta.entries:
                self._bump(fp, payload, count, adopt=True)


class ShardedChunkStore:
    """Fingerprint-prefix-sharded drop-in replacement for :class:`ChunkStore`.

    The fingerprint space is split by the first prefix byte into
    ``shard_count`` independent :class:`ChunkStore` shards — each with its
    own refcount table, accounting counters and lock — so concurrent
    writers (the multi-tenant service admits several dumps against one
    store) only contend when they touch the same prefix.  This is the
    shared-nothing fingerprint-index layout of Khan et al. scaled down to
    one node.

    Observable behaviour — payloads, refcounts, logical/physical/put
    accounting, deltas — is byte-identical to the flat store because every
    shard *is* a flat store; tests/storage/test_sharded_store.py holds the
    two layouts equal under random op interleavings.
    """

    def __init__(
        self,
        shard_count: int = 8,
        dedup: bool = True,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.dedup = dedup
        self.shard_count = shard_count
        self.shards = [ChunkStore(dedup=dedup) for _ in range(shard_count)]
        self._route = bytes(i % shard_count for i in range(256))  # prefix -> shard

    def shard_of(self, fp: Fingerprint) -> int:
        """Shard index from the fingerprint's first prefix byte."""
        return fp[0] % self.shard_count

    # -- chunk operations --------------------------------------------------------
    def _by_shard(self, items, fps=None) -> List[Tuple]:
        """``(shard, positions, batch)`` per shard the items' fingerprints (``fps``,
        else each item's first field) route to, first appearance first."""
        items = items if isinstance(items, list) else list(items)
        fps = map(itemgetter(0), items) if fps is None else fps
        shard_of = bytes(map(itemgetter(0), fps)).translate(self._route)
        order = np.frombuffer(shard_of, np.uint8).argsort(kind="stable")
        groups, start = [], 0
        for shard in sorted(set(shard_of)):  # one stable sort, cut by shard
            run = order[start : start + shard_of.count(shard)]
            start += len(run)
            groups.append((shard, run, list(map(items.__getitem__, run.tolist()))))
        return sorted(groups, key=lambda group: shard_of.find(group[0]))

    def put(self, fp: Fingerprint, data: bytes) -> bool:
        return self.shards[fp[0] % self.shard_count].put(fp, data)

    def put_many(self, pairs: Iterable[Tuple[Fingerprint, bytes]]) -> int:
        return sum(self.shards[i].put_many(b) for i, _, b in self._by_shard(pairs))

    def put_counted(
        self, items: Iterable[Tuple[Fingerprint, bytes, int]]
    ) -> int:
        return sum(self.shards[i].put_counted(b) for i, _, b in self._by_shard(items))

    def discard(self, fp: Fingerprint) -> int:
        return self.shards[fp[0] % self.shard_count].discard(fp)

    def get(self, fp: Fingerprint) -> bytes:
        return self.shards[fp[0] % self.shard_count].get(fp)

    def _scatter_gather(self, fps, op: str):
        """Run a batch read op per shard and scatter the results back into
        request order."""
        fps = fps if isinstance(fps, (list, tuple)) else list(fps)
        if self.shard_count == 1 or not fps:
            return getattr(self.shards[0], op)(fps)
        groups = self._by_shard(fps, fps)
        results: List = []
        for i, _, batch in groups:
            results += getattr(self.shards[i], op)(batch)
        position = np.empty(len(fps), dtype=np.intp)
        position[np.concatenate([run for _, run, _ in groups])] = np.arange(len(fps))
        return list(map(results.__getitem__, position.tolist()))

    def get_many(self, fps: Iterable[Fingerprint]) -> List[bytes]:
        """Batch :meth:`get`, grouped by shard."""
        return self._scatter_gather(fps, "get_many")

    def has_many(self, fps: Iterable[Fingerprint]) -> List[bool]:
        """Batch :meth:`has`, grouped by shard."""
        return self._scatter_gather(fps, "has_many")

    def nbytes_of(self, fp: Fingerprint) -> int:
        return self.shards[fp[0] % self.shard_count].nbytes_of(fp)

    def has(self, fp: Fingerprint) -> bool:
        return self.shards[fp[0] % self.shard_count].has(fp)

    def refcount(self, fp: Fingerprint) -> int:
        return self.shards[fp[0] % self.shard_count].refcount(fp)

    def fingerprints(self) -> Iterable[Fingerprint]:
        for shard in self.shards:
            yield from shard.fingerprints()

    @property
    def chunk_count(self) -> int:
        return sum(s.chunk_count for s in self.shards)

    @property
    def logical_bytes(self) -> int:
        return sum(s.logical_bytes for s in self.shards)

    @property
    def physical_bytes(self) -> int:
        return sum(s.physical_bytes for s in self.shards)

    @property
    def put_count(self) -> int:
        return sum(s.put_count for s in self.shards)

    def store_stats(self) -> Dict[str, object]:
        """Like :meth:`ChunkStore.store_stats` plus real per-shard skew."""
        per_shard = [s.chunk_count for s in self.shards]
        chunks = sum(per_shard)
        logical = self.logical_bytes
        physical = self.physical_bytes
        mean = chunks / self.shard_count
        return {
            "chunks": chunks,
            "logical_bytes": logical,
            "physical_bytes": physical,
            "put_count": self.put_count,
            "dedup_ratio": (1.0 - physical / logical) if logical else 0.0,
            "shard_count": self.shard_count,
            "shard_chunks": per_shard,
            "shard_skew": (max(per_shard) / mean) if mean else 0.0,
        }

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()

    # -- delta merge-back (process backend) -------------------------------------
    def mark(self) -> None:
        for shard in self.shards:
            shard.mark()

    def collect_delta(self) -> StoreDelta:
        entries: List[Tuple[Fingerprint, Optional[Payload], int]] = []
        for shard in self.shards:
            entries.extend(shard.collect_delta().entries)
        return StoreDelta(entries)

    def apply_delta(self, delta: StoreDelta) -> None:
        for i, _, batch in self._by_shard(delta.entries):
            self.shards[i].apply_delta(StoreDelta(batch))


def make_chunk_store(dedup: bool = True, shard_count: int = 1):
    """A flat store for ``shard_count == 1``, a sharded one otherwise."""
    if shard_count <= 1:
        return ChunkStore(dedup=dedup)
    return ShardedChunkStore(shard_count, dedup=dedup)


class NodeStorage:
    """One node's local storage: chunk store, manifest area and (for the
    erasure-coded redundancy mode) a parity-shard area."""

    def __init__(self, node_id: int, dedup: bool = True, shard_count: int = 1):
        self.node_id = node_id
        self.shard_count = shard_count
        self.chunks = make_chunk_store(dedup=dedup, shard_count=shard_count)
        # One dict whatever ``shard_count``: chunk shards exist for their
        # locks, and manifests are written once per dump and rank.
        self._manifests: Dict[Tuple[int, int], bytes] = {}
        # ParityRecord instances (see repro.erasure), in insertion order,
        # indexed by covered (fingerprint, dump) and by stripe.
        self._parity: List = []
        self._parity_by_fp: Dict[Tuple[Fingerprint, int], object] = {}
        self._parity_by_stripe: Dict[Tuple, List] = {}
        self.alive = True

    # -- parity area (erasure-coded redundancy mode) ---------------------------
    def put_parity(self, record) -> None:
        """Store one :class:`~repro.erasure.ec_dump.ParityRecord`."""
        self._parity.append(record)
        self._parity_by_stripe.setdefault(record.stripe_key(), []).append(record)
        for fp in record.fingerprints:
            if fp:  # skip NO_CHUNK placeholders
                self._parity_by_fp.setdefault((fp, record.dump_id), record)

    def find_parity(self, fp: Fingerprint, dump_id: int):
        """A parity record covering ``fp`` for ``dump_id``, or None."""
        return self._parity_by_fp.get((fp, dump_id))

    def parity_keys(self):
        """Every ``(fingerprint, dump_id)`` :meth:`find_parity` would hit."""
        return self._parity_by_fp.keys()

    def parity_for_stripe(self, stripe_key) -> List:
        """All locally stored shards of one stripe, in insertion order (see
        :meth:`~repro.erasure.ec_dump.ParityRecord.stripe_key`)."""
        return self._parity_by_stripe.get(stripe_key, [])

    @property
    def parity_bytes(self) -> int:
        return sum(len(r.shard) for r in self._parity)

    def put_manifest(self, manifest: Manifest, blob: Optional[bytes] = None) -> None:
        """Store a manifest; pass ``blob`` to reuse an existing serialization."""
        self._manifests[manifest.key()] = (
            blob if blob is not None else manifest.to_bytes()
        )

    def put_manifest_blob(self, blob: bytes) -> None:
        """Store a serialized manifest verbatim (no deserialization)."""
        self._manifests[Manifest.key_of_blob(blob)] = bytes(blob)

    def get_manifest(self, rank: int, dump_id: int) -> Manifest:
        try:
            return Manifest.from_bytes(self._manifests[(rank, dump_id)])
        except KeyError:
            raise StorageError(
                f"node {self.node_id}: no manifest for rank {rank}, dump {dump_id}"
            ) from None

    def get_manifest_blob(self, rank: int, dump_id: int) -> bytes:
        """The serialized manifest as stored (no deserialization)."""
        try:
            return self._manifests[(rank, dump_id)]
        except KeyError:
            raise StorageError(
                f"node {self.node_id}: no manifest for rank {rank}, dump {dump_id}"
            ) from None

    def has_manifest(self, rank: int, dump_id: int) -> bool:
        return (rank, dump_id) in self._manifests

    def drop_manifest(self, rank: int, dump_id: int) -> int:
        """Remove a manifest (service-level GC); returns bytes freed."""
        blob = self._manifests.pop((rank, dump_id), None)
        return len(blob) if blob is not None else 0

    def manifest_keys(self) -> List[Tuple[int, int]]:
        """All ``(rank, dump_id)`` manifest keys stored on this node."""
        return list(self._manifests.keys())

    @property
    def manifest_bytes(self) -> int:
        return sum(len(blob) for blob in self._manifests.values())

    # -- delta merge-back (process backend) -------------------------------------
    def mark(self) -> None:
        """Snapshot manifest keys, parity length and liveness for diffing."""
        self.chunks.mark()
        self._marked_manifests = set(self._manifests)
        self._marked_parity = len(self._parity)
        self._marked_alive = self.alive

    def collect_delta(self) -> NodeDelta:
        """All additions (and liveness change) since :meth:`mark`."""
        if not hasattr(self, "_marked_manifests"):
            raise StorageError("collect_delta() without a prior mark()")
        manifests = {
            key: blob
            for key, blob in self._manifests.items()
            if key not in self._marked_manifests
        }
        return NodeDelta(
            chunks=self.chunks.collect_delta(),
            manifests=manifests,
            parity=self._parity[self._marked_parity :],
            alive=None if self.alive == self._marked_alive else self.alive,
        )

    def apply_delta(self, delta: NodeDelta) -> None:
        self.chunks.apply_delta(delta.chunks)
        self._manifests.update(delta.manifests)
        for record in delta.parity:
            self.put_parity(record)
        if delta.alive is not None:
            self.alive = delta.alive


class HolderColumn:
    """Each fingerprint's live holder set, as one column
    (:meth:`Cluster.holder_column`).

    Row ``j``'s holders are the set bits of ``masks[ids[j]]``, bit ``i``
    being node ``i``.  A mask is a Python int, so any node count fits, and
    the column stores one index per row into the distinct sets, of which a
    sweep finds few.  A set's popcount is its live replica count and its
    lowest set bit its first (lowest-id) holder.
    """

    __slots__ = ("ids", "masks")

    def __init__(self, ids: np.ndarray, masks: List[int]) -> None:
        self.ids = ids
        self.masks = masks

    def sets(self) -> List[Tuple[int, ...]]:
        """Each distinct set's node ids, ascending."""
        return [
            tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            for mask in self.masks
        ]

    def replicas(self) -> np.ndarray:
        """Live replica count of each row."""
        counts = [mask.bit_count() for mask in self.masks]
        return np.array(counts, dtype=np.int64)[self.ids]

    def first(self) -> np.ndarray:
        """Lowest-id live holder of each row, -1 where there is none."""
        lowest = [(mask & -mask).bit_length() - 1 for mask in self.masks]
        return np.array(lowest, dtype=np.int64)[self.ids]


class Cluster:
    """All nodes of the machine; the restore path's lookup service.

    One node per rank by default (the paper runs 12 ranks/node; pass a
    ``rank_to_node`` map to model that).  Every dump places against the
    map: designation, top-up coverage and the rank shuffle count distinct
    nodes, so a replica lands off its sender's node wherever the shuffle's
    window allows.
    """

    def __init__(
        self,
        n_ranks: int,
        dedup: bool = True,
        rank_to_node: Optional[List[int]] = None,
        shard_count: int = 1,
    ) -> None:
        if rank_to_node is None:
            rank_to_node = list(range(n_ranks))
        if len(rank_to_node) != n_ranks:
            raise ValueError("rank_to_node must map every rank")
        self.n_ranks = n_ranks
        self.rank_to_node = list(rank_to_node)
        self.shard_count = shard_count
        n_nodes = max(rank_to_node) + 1
        self._nodes = [
            NodeStorage(i, dedup=dedup, shard_count=shard_count)
            for i in range(n_nodes)
        ]

    @property
    def nodes(self) -> List[NodeStorage]:
        return self._nodes

    def node_of(self, rank: int) -> NodeStorage:
        return self._nodes[self.rank_to_node[rank]]

    def storage_for(self, rank: int) -> NodeStorage:
        """The store a rank writes to; raises if its node failed."""
        node = self.node_of(rank)
        if not node.alive:
            raise StorageError(f"node {node.node_id} (rank {rank}) has failed")
        return node

    # -- failure handling ----------------------------------------------------
    def fail_node(self, node_id: int) -> None:
        self._nodes[node_id].alive = False

    def fail_rank(self, rank: int) -> None:
        self.node_of(rank).alive = False

    def revive_all(self) -> None:
        for node in self._nodes:
            node.alive = True

    @property
    def alive_nodes(self) -> List[NodeStorage]:
        return [n for n in self._nodes if n.alive]

    # -- lookup (the restore path's location service) --------------------------
    def locate(self, fp: Fingerprint) -> List[int]:
        """Live node ids holding the fingerprint."""
        return [n.node_id for n in self._nodes if n.alive and n.chunks.has(fp)]

    def holder_column(self, fps: Iterable[Fingerprint]) -> HolderColumn:
        """Every fingerprint's live holder set, from one ``has_many`` sweep
        per live node (see :class:`HolderColumn`)."""
        fps = fps if isinstance(fps, (list, tuple)) else list(fps)
        rows = range(len(fps))
        held = [0] * len(fps)  # bit i set: node i holds the row's chunk
        for node in self._nodes:
            if node.alive and node.chunks.chunk_count:
                bit = 1 << node.node_id
                for row in compress(rows, node.chunks.has_many(fps)):
                    held[row] |= bit
        index = {mask: i for i, mask in enumerate(dict.fromkeys(held))}
        ids = np.fromiter(map(index.__getitem__, held), np.intp, len(held))
        return HolderColumn(ids, list(index))

    def locate_many(
        self, fps: Iterable[Fingerprint]
    ) -> List[List[int]]:
        """Batch :meth:`locate`: per-fingerprint live holder lists, read off
        :meth:`holder_column`.  Holder ids come out ascending, exactly like
        :meth:`locate` — the restore planner's tie-break relies on it.
        """
        column = self.holder_column(fps)
        sets = column.sets()
        return [list(sets[i]) for i in column.ids.tolist()]

    def stored_sizes(self, fps: List[Fingerprint]) -> List[int]:
        """Stored payload size of each fingerprint, 0 where no node holds it.
        Failed nodes are asked too (a dead store still knows the size); each
        node gets one ``has_many`` over what the nodes before it lacked."""
        sizes: Dict[Fingerprint, int] = {}
        todo = fps
        for node in self._nodes:
            flags = node.chunks.has_many(todo)
            for fp in compress(todo, flags):
                sizes[fp] = node.chunks.nbytes_of(fp)
            todo = list(compress(todo, map(not_, flags)))
        return [sizes.get(fp, 0) for fp in fps]

    def locate_any(self, fp: Fingerprint) -> bytes:
        """Fetch a chunk from any live holder."""
        for node in self._nodes:
            if node.alive and node.chunks.has(fp):
                return node.chunks.get(fp)
        raise StorageError(f"chunk {fp.hex()[:12]}... unrecoverable (no live holder)")

    def find_manifest(self, rank: int, dump_id: int) -> Manifest:
        """Fetch a rank's manifest from any live node (owner first)."""
        owner = self.node_of(rank)
        if owner.alive and owner.has_manifest(rank, dump_id):
            return owner.get_manifest(rank, dump_id)
        for node in self._nodes:
            if node.alive and node.has_manifest(rank, dump_id):
                return node.get_manifest(rank, dump_id)
        raise StorageError(f"manifest of rank {rank}, dump {dump_id} unrecoverable")

    def replica_nodes(self, fp: Fingerprint) -> Set[int]:
        """All node ids (live or dead) holding the fingerprint."""
        return {n.node_id for n in self._nodes if n.chunks.has(fp)}

    def manifest_holders(self, rank: int, dump_id: int) -> List[int]:
        """Live node ids holding the manifest of ``(rank, dump_id)``."""
        return [
            n.node_id
            for n in self._nodes
            if n.alive and n.has_manifest(rank, dump_id)
        ]

    def known_dumps(self) -> List[int]:
        """Dump ids with at least one manifest on a live node, ascending.

        The repair scanner's discovery primitive: after failures this is the
        set of dumps that can still be audited and repaired at all.
        """
        dumps: Set[int] = set()
        for node in self._nodes:
            if node.alive:
                dumps.update(d for _r, d in node.manifest_keys())
        return sorted(dumps)

    @property
    def total_physical_bytes(self) -> int:
        return sum(n.chunks.physical_bytes for n in self._nodes)

    def store_stats(self) -> Dict[str, object]:
        """Cluster-wide store snapshot: node totals plus per-shard skew
        aggregated across nodes (all nodes share one ``shard_count``)."""
        per_node = [n.chunks.store_stats() for n in self._nodes]
        width = max(s["shard_count"] for s in per_node)
        shard_chunks = [0] * width
        for stats in per_node:
            for i, c in enumerate(stats["shard_chunks"]):
                shard_chunks[i] += c
        chunks = sum(shard_chunks)
        logical = sum(s["logical_bytes"] for s in per_node)
        physical = sum(s["physical_bytes"] for s in per_node)
        mean = chunks / width
        return {
            "chunks": chunks,
            "logical_bytes": logical,
            "physical_bytes": physical,
            "put_count": sum(s["put_count"] for s in per_node),
            "dedup_ratio": (1.0 - physical / logical) if logical else 0.0,
            "shard_count": width,
            "shard_chunks": shard_chunks,
            "shard_skew": (max(shard_chunks) / mean) if mean else 0.0,
        }

    # -- delta merge-back (process backend) -------------------------------------
    def mark(self) -> None:
        """Snapshot every node so :meth:`collect_delta` can diff the cluster.

        Process-backend protocol: each forked rank marks its inherited
        cluster copy before running, collects a :class:`ClusterDelta` after,
        and the parent applies every rank's delta to the real cluster —
        reproducing exactly the state a thread-backend run would leave.
        """
        for node in self._nodes:
            node.mark()

    def collect_delta(self) -> ClusterDelta:
        """Per-node deltas since :meth:`mark` (empty nodes omitted)."""
        nodes: Dict[int, NodeDelta] = {}
        for node in self._nodes:
            delta = node.collect_delta()
            if delta:
                nodes[node.node_id] = delta
        return ClusterDelta(nodes)

    def apply_delta(self, delta: ClusterDelta) -> None:
        for node_id, node_delta in delta.nodes.items():
            self._nodes[node_id].apply_delta(node_delta)

    @property
    def total_logical_bytes(self) -> int:
        return sum(n.chunks.logical_bytes for n in self._nodes)
