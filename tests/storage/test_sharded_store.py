"""Sharded chunk store: byte-for-byte equivalence with the flat store.

The sharded store is a drop-in behind the same API, so the property that
matters is *observational equivalence*: any interleaving of commits,
increfs, GC discards and delta replays must leave a sharded store (at any
shard count) indistinguishable from a flat store fed the same sequence —
same payloads, refcounts, byte accounting and dedup stats.
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    ChunkStore,
    ShardedChunkStore,
    make_chunk_store,
)
from repro.storage.local_store import StorageError, StoreDelta

PAYLOADS = [bytes([i]) * (16 + 8 * i) for i in range(8)]
FPS = [hashlib.sha1(p).digest() for p in PAYLOADS]

SHARD_COUNTS = [1, 2, 8, 16]

_op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 7)),
    st.tuples(st.just("incref"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(
        st.just("put_many"),
        st.lists(st.integers(0, 7), min_size=1, max_size=5),
    ),
    st.tuples(st.just("discard"), st.integers(0, 7)),
    st.tuples(st.just("mark"),),
)


def apply_op(store, op):
    if op[0] == "put":
        store.put(FPS[op[1]], PAYLOADS[op[1]])
    elif op[0] == "incref":
        store.put_counted([(FPS[op[1]], PAYLOADS[op[1]], op[2])])
    elif op[0] == "put_many":
        store.put_many([(FPS[i], PAYLOADS[i]) for i in op[1]])
    elif op[0] == "discard":
        store.discard(FPS[op[1]])
    elif op[0] == "mark":
        store.mark()


def observable(store):
    """Everything a caller can see through the store API."""
    return {
        "chunks": sorted(
            (fp, store.refcount(fp), store.get(fp), store.nbytes_of(fp))
            for fp in store.fingerprints()
        ),
        "chunk_count": store.chunk_count,
        "logical": store.logical_bytes,
        "physical": store.physical_bytes,
        "puts": store.put_count,
        "stats": {
            k: v
            for k, v in store.store_stats().items()
            if k not in ("shard_count", "shard_chunks", "shard_skew")
        },
    }


class TestShardedEquivalence:
    @given(
        ops=st.lists(_op, max_size=30),
        shard_count=st.sampled_from(SHARD_COUNTS),
        dedup=st.booleans(),
    )
    def test_any_interleaving_matches_flat_store(
        self, ops, shard_count, dedup
    ):
        flat = ChunkStore(dedup=dedup)
        sharded = ShardedChunkStore(shard_count=shard_count, dedup=dedup)
        for op in ops:
            apply_op(flat, op)
            apply_op(sharded, op)
        assert observable(flat) == observable(sharded)

    @given(
        ops=st.lists(_op, max_size=30),
        shard_count=st.sampled_from(SHARD_COUNTS),
    )
    def test_delta_replay_crosses_layouts(self, ops, shard_count):
        """A delta collected from either layout replays onto either layout:
        the merge-back path must not care how the source or target shards.

        Deltas are additive by contract (stores are append-only during a
        dump epoch; GC runs between epochs), so discard and re-mark ops are
        filtered to keep each case a single all-put epoch.
        """
        flat = ChunkStore()
        sharded = ShardedChunkStore(shard_count=shard_count)
        flat.mark()
        sharded.mark()
        for op in ops:
            if op[0] in ("mark", "discard"):
                continue
            apply_op(flat, op)
            apply_op(sharded, op)
        flat_delta = flat.collect_delta()
        sharded_delta = sharded.collect_delta()

        targets = {
            "flat<-sharded": ChunkStore(),
            "sharded<-flat": ShardedChunkStore(shard_count=shard_count),
            "sharded<-sharded": ShardedChunkStore(shard_count=shard_count),
        }
        targets["flat<-sharded"].apply_delta(sharded_delta)
        targets["sharded<-flat"].apply_delta(flat_delta)
        targets["sharded<-sharded"].apply_delta(sharded_delta)
        want = observable(flat)
        for label, target in targets.items():
            assert observable(target) == want, label


def slab_of_payloads():
    """``PAYLOADS`` back to back in one buffer, and a read-only view of each:
    how a forked rank's result segment reaches ``apply_delta``."""
    slab = np.frombuffer(b"".join(PAYLOADS), dtype=np.uint8).copy()
    view, views, pos = memoryview(slab).toreadonly(), [], 0
    for payload in PAYLOADS:
        views.append(view[pos : pos + len(payload)])
        pos += len(payload)
    return slab, views


_delta_op = st.tuples(
    st.just("apply_delta"),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(1, 3), st.booleans()),
        min_size=1, max_size=4, unique_by=lambda e: e[0],
    ),
)


class TestAdoptedDeltaEquivalence:
    @given(
        ops=st.lists(_op | _delta_op, max_size=30),
        shard_count=st.sampled_from(SHARD_COUNTS),
        dedup=st.booleans(),
    )
    def test_a_delta_of_views_is_a_delta_of_bytes(self, ops, shard_count, dedup):
        """The same delta arriving as ``bytes`` payloads and as views of one
        buffer, interleaved with puts, increfs, discards and marks, leaves
        the same store on either layout: only the payload type differs."""
        _slab, views = slab_of_payloads()
        stores = {
            (layout, kind): make_chunk_store(dedup=dedup, shard_count=layout)
            for layout in (1, shard_count)
            for kind in ("bytes", "views")
        }
        for store in stores.values():
            store.mark()
        for op in ops:
            for (_layout, kind), store in stores.items():
                if op[0] != "apply_delta":
                    apply_op(store, op)
                    continue
                payloads = PAYLOADS if kind == "bytes" else views
                store.apply_delta(StoreDelta([
                    (FPS[i], payloads[i] if carried or not store.has(FPS[i]) else None, n)
                    for i, n, carried in op[1]
                ]))
        want = observable(stores[1, "bytes"])
        by_fp = lambda entry: entry[0]
        want_delta = sorted(stores[1, "bytes"].collect_delta().entries, key=by_fp)
        want_reads = stores[1, "bytes"].get_many(sorted(stores[1, "bytes"].fingerprints()))
        for key, store in stores.items():
            assert observable(store) == want, key
            assert sorted(store.collect_delta().entries, key=by_fp) == want_delta, key
            reads = store.get_many(sorted(store.fingerprints()))
            assert list(map(bytes, reads)) == want_reads, key

    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    def test_the_buffer_dies_with_its_last_chunk(self, shard_count):
        slab, views = slab_of_payloads()
        slab = weakref.ref(slab)
        store = ShardedChunkStore(shard_count=shard_count)
        store.apply_delta(StoreDelta([(fp, view, 1) for fp, view in zip(FPS, views)]))
        assert all(type(p) is memoryview for p in store.get_many(FPS))
        del views
        for fp in FPS[:-1]:
            store.discard(fp)
        gc.collect()
        assert slab() is not None, "one chunk left: the slab stays"
        store.clear()
        assert slab() is None

    def test_put_many_copies_a_read_only_view(self):
        live = bytearray(PAYLOADS[0])
        store = ShardedChunkStore(shard_count=4)
        store.put_many([(FPS[0], memoryview(live).toreadonly())])
        live[:4] = b"XXXX"
        assert type(store.get(FPS[0])) is bytes and store.get(FPS[0]) == PAYLOADS[0]


class TestShardedStore:
    def test_routing_is_stable_and_total(self):
        store = ShardedChunkStore(shard_count=8)
        for fp in FPS:
            assert store.shard_of(fp) == fp[0] % 8
        for fp, payload in zip(FPS, PAYLOADS):
            store.put(fp, payload)
        assert sorted(store.fingerprints()) == sorted(FPS)
        assert store.chunk_count == len(FPS)

    def test_store_stats_reports_shard_shape(self):
        store = ShardedChunkStore(shard_count=4)
        store.put_counted([(fp, p, 2) for fp, p in zip(FPS, PAYLOADS)])
        stats = store.store_stats()
        assert stats["shard_count"] == 4
        assert len(stats["shard_chunks"]) == 4
        assert sum(stats["shard_chunks"]) == len(FPS)
        assert stats["chunks"] == len(FPS)
        assert stats["shard_skew"] >= 1.0
        assert 0.0 <= stats["dedup_ratio"] <= 1.0

    def test_clear_empties_every_shard(self):
        store = ShardedChunkStore(shard_count=4)
        for fp, payload in zip(FPS, PAYLOADS):
            store.put(fp, payload)
        store.clear()
        assert store.chunk_count == 0
        assert store.logical_bytes == 0
        assert store.physical_bytes == 0

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedChunkStore(shard_count=0)

    def test_make_chunk_store_picks_layout(self):
        assert isinstance(make_chunk_store(shard_count=1), ChunkStore)
        assert isinstance(
            make_chunk_store(shard_count=2), ShardedChunkStore
        )


class TestShardedBatchedReads:
    @pytest.mark.parametrize("shard_count", [1, 4, 8])
    def test_scatter_gather_preserves_request_order(self, shard_count):
        store = ShardedChunkStore(shard_count=shard_count)
        for fp, payload in zip(FPS, PAYLOADS):
            store.put(fp, payload)
        # Request order deliberately interleaves shards and repeats.
        fps = [FPS[3], FPS[0], FPS[3], FPS[-1], FPS[1]]
        assert store.get_many(fps) == [store.get(f) for f in fps]
        probe = fps + [b"\xff" * 20]
        assert store.has_many(probe) == [store.has(f) for f in probe]

    def test_get_many_missing_raises(self):
        store = ShardedChunkStore(shard_count=4)
        store.put(FPS[0], PAYLOADS[0])
        with pytest.raises(StorageError, match="not in store"):
            store.get_many([FPS[0], b"\xfe" * 20])

    def test_batches_keep_order_and_raise_for_the_same_missing_chunk(self):
        """One stable sort per batch: each shard sees its items in request
        order, and the shards run in first-appearance order, so of several
        missing chunks the one raised for is the first in the first shard
        the batch touches, not the first in the batch."""
        store = ShardedChunkStore(shard_count=4)
        flats = [ChunkStore() for _ in store.shards]  # one per shard, fed by hand
        fps = [bytes([p]) + bytes([i]) * 19 for i, p in enumerate([5, 2, 9, 6, 1, 13])]

        def both(op, items):
            getattr(store, op)(items)
            for i, flat in enumerate(flats):
                getattr(flat, op)([it for it in items if store.shard_of(it[0]) == i])

        both("put_many", [(fp, fp[:4]) for fp in fps[:4]])
        store.mark()
        for flat in flats:
            flat.mark()
        both("put_counted", [(fp, fp[:4], 2) for fp in reversed(fps)])
        assert [list(shard.fingerprints()) for shard in store.shards] == [
            list(flat.fingerprints()) for flat in flats
        ]
        assert store.collect_delta().entries == [
            entry for flat in flats for entry in flat.collect_delta().entries
        ]
        first_missing = b"\x01" + b"\xee" * 19  # shard 1, listed after ...
        other_missing = b"\x04" + b"\xee" * 19  # ... this miss in shard 0
        probe = [fps[0], other_missing, fps[4], first_missing]
        with pytest.raises(StorageError, match=first_missing.hex()[:12]):
            store.get_many(probe)
        assert store.has_many(probe) == [True, False, True, False]
