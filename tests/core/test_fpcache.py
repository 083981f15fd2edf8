"""The cross-dump incremental fingerprint cache: reuse, invalidation, stats."""

import numpy as np
import pytest

from repro.core.chunking import Dataset
from repro.core.fingerprint import Fingerprinter
from repro.core.fpcache import FingerprintCache

CS = 64


def seg(seed, n_chunks, tail=0):
    return bytearray(
        np.random.RandomState(seed).bytes(n_chunks * CS + tail)
    )


class TestColdPath:
    def test_cold_dump_hashes_everything(self):
        ds = Dataset([seg(0, 4), seg(1, 2, tail=10)])
        cache = FingerprintCache(CS)
        fpr = Fingerprinter()
        fps = cache.fingerprint_dataset(ds, fpr, dirty_regions=None)
        assert fps == Fingerprinter().fingerprint_all(ds.chunks(CS))
        stats = cache.take_stats()
        assert stats.hits == 0
        assert stats.misses == 7
        assert stats.bytes_hashed == ds.nbytes
        assert fpr.hashed_bytes == ds.nbytes

    def test_unknown_dirtiness_always_rehashes(self):
        ds = Dataset([seg(0, 4)])
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        stats = cache.take_stats()
        assert stats.hits == 0 and stats.misses == 4


class TestWarmPath:
    def test_clean_segment_skips_hashing(self):
        ds = Dataset([seg(0, 4)])
        cache = FingerprintCache(CS)
        cold = cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        fpr = Fingerprinter()
        warm = cache.fingerprint_dataset(ds, fpr, [[]])
        assert warm == cold
        stats = cache.take_stats()
        assert stats.hits == 4
        assert stats.bytes_skipped == ds.nbytes
        assert fpr.hashed_bytes == 0

    def test_dirty_range_rehashes_only_overlapping_chunks(self):
        buf = seg(0, 8)
        ds = Dataset([buf])
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        # Mutate bytes inside chunks 2 and 3, declare exactly that range.
        buf[2 * CS + 5] ^= 0xFF
        buf[3 * CS + 1] ^= 0xFF
        fpr = Fingerprinter()
        warm = cache.fingerprint_dataset(ds, fpr, [[(2 * CS + 5, 3 * CS + 2)]])
        assert warm == Fingerprinter().fingerprint_all(ds.chunks(CS))
        stats = cache.take_stats()
        assert stats.misses == 2
        assert stats.hits == 6
        assert fpr.hashed_bytes == 2 * CS

    def test_byte_range_straddling_chunk_boundary(self):
        buf = seg(0, 4)
        ds = Dataset([buf])
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        buf[CS - 1] ^= 1
        buf[CS] ^= 1
        warm = cache.fingerprint_dataset(ds, Fingerprinter(), [[(CS - 1, CS + 1)]])
        assert warm == Fingerprinter().fingerprint_all(ds.chunks(CS))

    def test_short_tail_chunk_accounting(self):
        buf = seg(0, 2, tail=10)
        ds = Dataset([buf])
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        fpr = Fingerprinter()
        cache.fingerprint_dataset(ds, fpr, [[(2 * CS, 2 * CS + 10)]])
        stats = cache.take_stats()
        assert stats.misses == 1
        assert fpr.hashed_bytes == 10  # only the short tail was re-hashed
        assert stats.bytes_skipped == 2 * CS

    def test_per_segment_mixed_dirtiness(self):
        a, b = seg(0, 3), seg(1, 3)
        ds = Dataset([a, b])
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        b[0] ^= 1
        warm = cache.fingerprint_dataset(
            ds, Fingerprinter(), [[], [(0, 1)]]
        )
        assert warm == Fingerprinter().fingerprint_all(ds.chunks(CS))
        stats = cache.take_stats()
        assert stats.hits == 5 and stats.misses == 1

    def test_none_entry_for_one_segment_rehashes_it(self):
        ds = Dataset([seg(0, 3), seg(1, 3)])
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(ds, Fingerprinter(), None)
        cache.take_stats()
        cache.fingerprint_dataset(ds, Fingerprinter(), [[], None])
        stats = cache.take_stats()
        assert stats.hits == 3 and stats.misses == 3


class TestInvalidation:
    def test_segment_resize_invalidates_segment(self):
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(Dataset([seg(0, 4)]), Fingerprinter(), None)
        cache.take_stats()
        grown = Dataset([seg(0, 5)])
        fps = cache.fingerprint_dataset(grown, Fingerprinter(), [[]])
        assert fps == Fingerprinter().fingerprint_all(grown.chunks(CS))
        stats = cache.take_stats()
        assert stats.hits == 0 and stats.misses == 5

    def test_reshape_hashes_the_dataset_whole(self):
        """Dirty ranges name segments by index: with the middle segment
        gone, "segment 1 is clean" speaks of the old segment 2's bytes."""
        a, b, c = seg(0, 3), seg(1, 3), seg(2, 3)
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(Dataset([a, b, c]), Fingerprinter(), None)
        cache.take_stats()
        dropped = Dataset([a, c])
        fps = cache.fingerprint_dataset(dropped, Fingerprinter(), [[], []])
        assert fps == Fingerprinter().fingerprint_all(dropped.chunks(CS))
        stats = cache.take_stats()
        assert stats.hits == 0 and stats.misses == 6
        # the reshaped dataset is the next call's baseline
        cache.fingerprint_dataset(dropped, Fingerprinter(), [[], []])
        assert cache.take_stats().hits == 6

    def test_config_change_clears_cache(self):
        cache = FingerprintCache(CS, "sha1")
        ds = Dataset([seg(0, 4)])
        cache.fingerprint_dataset(ds, Fingerprinter("sha1"), None)
        assert len(cache) == 4
        cache.ensure_compatible(CS, "blake2b")
        assert len(cache) == 0
        fps = cache.fingerprint_dataset(ds, Fingerprinter("blake2b"), [[]])
        assert fps == Fingerprinter("blake2b").fingerprint_all(ds.chunks(CS))

    def test_vanished_segment_dropped(self):
        cache = FingerprintCache(CS)
        cache.fingerprint_dataset(
            Dataset([seg(0, 2), seg(1, 2)]), Fingerprinter(), None
        )
        cache.fingerprint_dataset(Dataset([seg(0, 2)]), Fingerprinter(), None)
        assert len(cache) == 2

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            FingerprintCache(0)
