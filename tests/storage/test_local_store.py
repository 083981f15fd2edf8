"""ChunkStore accounting, dedup vs raw mode."""

import copy
import gc
import os
import pickle
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage.local_store import ChunkStore, StorageError, StoreDelta


def fp(i):
    return bytes([i]) * 20


class TestDedupStore:
    def test_first_put_is_physical(self):
        store = ChunkStore()
        assert store.put(fp(1), b"abcd") is True
        assert store.physical_bytes == 4
        assert store.logical_bytes == 4

    def test_duplicate_put_is_logical_only(self):
        store = ChunkStore()
        store.put(fp(1), b"abcd")
        assert store.put(fp(1), b"abcd") is False
        assert store.physical_bytes == 4
        assert store.logical_bytes == 8
        assert store.refcount(fp(1)) == 2

    def test_get_returns_payload(self):
        store = ChunkStore()
        store.put(fp(2), b"data")
        assert store.get(fp(2)) == b"data"

    def test_get_missing_raises(self):
        with pytest.raises(StorageError):
            ChunkStore().get(fp(9))

    def test_has_and_count(self):
        store = ChunkStore()
        store.put(fp(1), b"a")
        store.put(fp(1), b"a")
        store.put(fp(2), b"b")
        assert store.has(fp(1)) and store.has(fp(2))
        assert not store.has(fp(3))
        assert store.chunk_count == 2
        assert store.put_count == 3

    def test_clear(self):
        store = ChunkStore()
        store.put(fp(1), b"a")
        store.clear()
        assert store.chunk_count == 0
        assert store.physical_bytes == 0
        assert not store.has(fp(1))


class TestRawStore:
    def test_every_put_physical(self):
        store = ChunkStore(dedup=False)
        store.put(fp(1), b"xxxx")
        assert store.put(fp(1), b"xxxx") is True
        assert store.physical_bytes == 8
        assert store.logical_bytes == 8

    def test_content_still_addressable(self):
        store = ChunkStore(dedup=False)
        store.put(fp(1), b"xxxx")
        store.put(fp(1), b"xxxx")
        assert store.get(fp(1)) == b"xxxx"


class TestBatchedReads:
    def _loaded(self):
        store = ChunkStore()
        for i in range(8):
            store.put(fp(i), bytes([i]) * 4)
        return store

    def test_get_many_matches_gets(self):
        store = self._loaded()
        fps = [fp(3), fp(0), fp(3), fp(7)]
        assert store.get_many(fps) == [store.get(f) for f in fps]

    def test_get_many_empty(self):
        assert ChunkStore().get_many([]) == []

    def test_get_many_generator_input(self):
        store = self._loaded()
        assert store.get_many(fp(i) for i in (1, 2)) == [b"\x01" * 4, b"\x02" * 4]

    def test_get_many_missing_raises_same_error(self):
        store = self._loaded()
        with pytest.raises(StorageError, match="not in store"):
            store.get_many([fp(0), fp(42)])

    def test_has_many_matches_has(self):
        store = self._loaded()
        fps = [fp(0), fp(42), fp(7), fp(99)]
        assert store.has_many(fps) == [store.has(f) for f in fps]
        assert ChunkStore().has_many([]) == []


def slab_delta(n=4, size=8):
    """``n`` chunks as read-only views of one buffer, the shape in which a
    forked rank's result segment reaches ``apply_delta``; the buffer is a
    numpy array so a ``weakref`` can watch it die."""
    slab = np.arange(n * size, dtype=np.uint8)
    view = memoryview(slab).toreadonly()
    entries = [(fp(i), view[i * size : (i + 1) * size], 1) for i in range(n)]
    return weakref.ref(slab), StoreDelta(entries)


class TestAdoptedPayloads:
    """``apply_delta`` keeps the payload objects of a delta (by contract: a
    delta's payloads never change); every other put path copies."""

    def test_apply_delta_keeps_the_views_and_reads_like_bytes(self):
        slab, delta = slab_delta()
        store = ChunkStore()
        store.apply_delta(delta)
        got = store.get_many([fp(2), fp(0)])
        assert got == [bytes(range(16, 24)), bytes(range(8))]
        assert all(type(p) is memoryview and p.readonly for p in got)
        assert got[0].obj is delta.entries[2][1].obj
        assert (store.nbytes_of(fp(1)), store.physical_bytes, store.put_count) == (8, 32, 4)

    @pytest.mark.parametrize("put", ["put", "put_many", "put_counted"])
    def test_every_put_path_copies_even_a_read_only_view(self, put):
        """Not inferred from ``readonly``: an application hands out
        read-only views of memory it then rewrites in place."""
        live = bytearray(b"before!!")
        view = memoryview(live).toreadonly()
        store = ChunkStore()
        if put == "put":
            store.put(fp(1), view)
        elif put == "put_many":
            store.put_many([(fp(1), view)])
        else:
            store.put_counted([(fp(1), view, 2)])
        live[:] = b"after!!!"
        assert type(store.get(fp(1))) is bytes and store.get(fp(1)) == b"before!!"

    @pytest.mark.parametrize("how", ["discard", "clear"])
    def test_the_buffer_dies_with_its_last_chunk(self, how):
        slab, delta = slab_delta()
        store = ChunkStore()
        store.apply_delta(delta)
        del delta
        gc.collect()
        assert slab() is not None
        if how == "clear":
            store.clear()
        else:
            for i in range(3):
                store.discard(fp(i))
            assert slab() is not None, "one chunk left: the slab stays"
            store.discard(fp(3))
        assert slab() is None


class SlowRefcounts(dict):
    """A refcount table that yields the GIL after every read, so an unlocked
    read-modify-write loses an update whenever two writers overlap."""

    def get(self, *args):
        value = super().get(*args)
        time.sleep(0)
        return value

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


class TestConcurrentWriters:
    """Rank threads that share a node (``Cluster(rank_to_node=...)``) write
    to one flat store at once."""

    @pytest.mark.parametrize("op", ["put_many", "put_counted"])
    def test_no_reference_is_lost(self, op):
        store = ChunkStore()
        store._refcounts = SlowRefcounts()
        fps = [fp(i) for i in range(3)]
        rounds = 50
        start = threading.Barrier(4, timeout=60)

        def writer():
            start.wait()
            for _ in range(rounds):
                if op == "put_many":
                    store.put_many([(f, b"x") for f in fps])
                else:
                    store.put_counted([(f, b"x", 1) for f in fps])

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [store.refcount(f) for f in fps] == [4 * rounds] * len(fps)
        assert store.put_count == store.logical_bytes == 4 * rounds * len(fps)
        assert store.physical_bytes == len(fps)

    def test_copies_get_their_own_lock(self):
        store = ChunkStore()
        store.put(fp(1), b"abcd")
        for twin in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
            assert twin._lock is not store._lock
            with store._lock:  # the original's lock does not block the copy
                twin.put(fp(1), b"abcd")
            assert twin.refcount(fp(1)) == 2 and store.refcount(fp(1)) == 1


_STORE_FPS = [fp(i) for i in range(6)]
_STORE_PAYLOADS = [b"", b"a", b"bb", b"ccc", bytes(range(16)), b"z" * 40]

#: one batch item: a fingerprint out of a small pool (so a call repeats
#: fingerprints and meets ones already stored), a payload, a multiplicity
#: and whether the payload arrives as a read-only ``memoryview``
_batch_item = st.tuples(
    st.integers(0, len(_STORE_FPS) - 1),
    st.integers(0, len(_STORE_PAYLOADS) - 1),
    st.integers(1, 3),
    st.booleans(),
)


def _store_state(store):
    return (
        list(store.fingerprints()),
        [
            (store.refcount(f), store.get(f), type(store.get(f)))
            for f in store.fingerprints()
        ],
        store.logical_bytes,
        store.physical_bytes,
        store.put_count,
    )


class TestBatchPutsMatchSequentialPut:
    """``put_many`` and ``put_counted`` commit whole columns; a loop of
    :meth:`ChunkStore.put` is their specification, down to the stored
    payloads, the insertion order of ``fingerprints()``, the counters and
    the return value."""

    @staticmethod
    def _stores(dedup, preload):
        stores = ChunkStore(dedup=dedup), ChunkStore(dedup=dedup)
        for store in stores:
            for i, j in preload:
                store.put(_STORE_FPS[i], _STORE_PAYLOADS[j])
        return stores

    @staticmethod
    def _payload(j, as_view):
        payload = _STORE_PAYLOADS[j]
        return memoryview(bytearray(payload)).toreadonly() if as_view else payload

    @given(
        dedup=st.booleans(),
        preload=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4),
        calls=st.lists(st.lists(_batch_item, max_size=8), min_size=1, max_size=3),
    )
    def test_put_many_is_a_loop_of_put(self, dedup, preload, calls):
        batched, looped = self._stores(dedup, preload)
        for call in calls:
            pairs = [(_STORE_FPS[i], self._payload(j, view)) for i, j, _n, view in call]
            expected = sum(looped.put(f, p) for f, p in pairs)
            assert batched.put_many(iter(pairs)) == expected
            assert _store_state(batched) == _store_state(looped)

    @given(
        dedup=st.booleans(),
        preload=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4),
        calls=st.lists(st.lists(_batch_item, max_size=8), min_size=1, max_size=3),
    )
    def test_put_counted_is_a_loop_of_put(self, dedup, preload, calls):
        batched, looped = self._stores(dedup, preload)
        for call in calls:
            items = [
                (_STORE_FPS[i], self._payload(j, view), n) for i, j, n, view in call
            ]
            expected = sum(looped.put(f, p) for f, p, n in items for _ in range(n))
            assert batched.put_counted(iter(items)) == expected
            assert _store_state(batched) == _store_state(looped)

    def test_an_adopted_payload_stays_when_a_batch_repeats_it(self):
        slab = bytes(range(8))
        batched = ChunkStore()
        batched.apply_delta(StoreDelta([(fp(1), memoryview(slab)[:4], 1)]))
        batched.put_counted([(fp(1), bytes(range(4)), 2), (fp(2), b"new", 1)])
        assert type(batched.get(fp(1))) is memoryview
        assert batched.refcount(fp(1)) == 3 and batched.physical_bytes == 7
