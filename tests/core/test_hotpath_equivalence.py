"""Equivalence of the batched hot path with the legacy per-chunk path.

The batched pipeline (zero-copy batch fingerprinting, array-backed local
dedup, packed per-partner exchange) and the cross-dump fingerprint cache
are pure performance work: every observable — wire bytes, DumpReport
accounting, stored state, restored datasets — must be identical to the
seed per-chunk implementation.  These tests pin that, property-style where
the input space matters.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.chunking import Dataset
from repro.core.fingerprint import Fingerprinter
from repro.core.fpcache import FingerprintCache
from repro.core.local_dedup import local_dedup, local_dedup_batched
from repro.core.wire import (
    decode_region,
    decode_region_unique,
    encode_record,
    encode_records_into,
    slot_nbytes,
)
from repro.simmpi import World
from repro.storage import Cluster

from tests.conftest import make_rank_dataset

DIGEST = 20
CHUNK = 32
CS = 64


def fp_of(i: int) -> bytes:
    return bytes([i % 256]) * DIGEST


# -- wire codec ---------------------------------------------------------------

records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255).map(fp_of),
        st.binary(min_size=0, max_size=CHUNK),
    ),
    min_size=0,
    max_size=12,
)


class TestWireCodecEquivalence:
    @given(records=records_strategy)
    def test_batched_encode_matches_legacy_bytes(self, records):
        legacy = b"".join(encode_record(fp, c, CHUNK) for fp, c in records)
        buf = bytearray(len(records) * slot_nbytes(DIGEST, CHUNK))
        packed = encode_records_into(buf, records, DIGEST, CHUNK)
        assert packed == len(records)
        assert bytes(buf) == legacy

    @given(records=records_strategy, data=st.data())
    def test_batched_decode_matches_legacy(self, records, data):
        window = b"".join(encode_record(fp, c, CHUNK) for fp, c in records)
        start = data.draw(
            st.integers(min_value=0, max_value=len(records)), label="start"
        )
        count = data.draw(
            st.integers(min_value=0, max_value=len(records) - start),
            label="count",
        )
        pairs, mults, nbytes = decode_region_unique(
            window, DIGEST, CHUNK, start, count
        )
        legacy = decode_region(window, DIGEST, CHUNK, start, count)
        # The region collapsed to distinct fingerprints in first-occurrence
        # order, each with its first payload and its multiplicity.
        first = {}
        for fp, payload in legacy:
            first.setdefault(fp, payload)
        assert pairs == list(first.items())
        assert mults == [
            sum(1 for fp, _ in legacy if fp == seen) for seen in first
        ]
        assert nbytes == sum(len(payload) for _, payload in legacy)

    @given(records=records_strategy)
    def test_round_trip_through_reused_buffer(self, records):
        # A dirty, reused buffer must not leak stale bytes into the region.
        buf = bytearray(b"\xaa" * (max(len(records), 1) * slot_nbytes(DIGEST, CHUNK)))
        encode_records_into(buf, records, DIGEST, CHUNK)
        decoded = decode_region(bytes(buf), DIGEST, CHUNK, 0, len(records))
        assert decoded == records

    def test_batched_decode_rejects_truncated_window(self):
        window = encode_record(fp_of(1), b"a", CHUNK)
        try:
            decode_region_unique(window[:-1], DIGEST, CHUNK, 0, 1)
        except ValueError as exc:
            assert "truncated" in str(exc)
        else:  # pragma: no cover - defensive
            raise AssertionError("truncated window accepted")

    def test_batched_decode_rejects_corrupt_length(self):
        record = bytearray(encode_record(fp_of(1), b"a", CHUNK))
        record[DIGEST] = 0xFF  # length field now > CHUNK
        try:
            decode_region_unique(bytes(record), DIGEST, CHUNK, 0, 1)
        except ValueError as exc:
            assert "corrupt" in str(exc)
        else:  # pragma: no cover - defensive
            raise AssertionError("corrupt record accepted")


# -- local dedup --------------------------------------------------------------

segments_strategy = st.lists(
    st.binary(min_size=0, max_size=5 * CHUNK), min_size=0, max_size=4
)


class TestLocalDedupEquivalence:
    @given(segments=segments_strategy)
    def test_batched_index_identical_to_legacy(self, segments):
        ds = Dataset(segments)
        legacy = local_dedup(ds, Fingerprinter(), CHUNK)
        f2 = Fingerprinter()
        batched = local_dedup_batched(ds, f2, CHUNK)
        assert batched.order == legacy.order
        # Dict *iteration order* is part of the contract (plans and wire
        # order derive from first-occurrence order).
        assert list(batched.counts.items()) == list(legacy.counts.items())
        assert list(batched.unique.items()) == list(legacy.unique.items())
        assert list(batched.chunk_sizes.items()) == list(
            legacy.chunk_sizes.items()
        )
        assert f2.hashed_bytes == ds.nbytes

    @given(segments=segments_strategy)
    def test_warm_cache_index_identical_to_cold(self, segments):
        ds = Dataset(segments)
        cache = FingerprintCache(CHUNK)
        cold = local_dedup_batched(ds, Fingerprinter(), CHUNK, cache=cache)
        all_clean = [[] for _ in segments]
        fpr = Fingerprinter()
        warm = local_dedup_batched(
            ds, fpr, CHUNK, cache=cache, dirty_regions=all_clean
        )
        assert warm.order == cold.order
        assert list(warm.unique.items()) == list(cold.unique.items())
        assert fpr.hashed_bytes == 0


# -- full dump ----------------------------------------------------------------

def run_dump(n, batched, datasets, caches=None, dirty=None, k=3, dump_id=0,
             cluster=None, strategy=Strategy.COLL_DEDUP):
    cfg = DumpConfig(
        replication_factor=k, chunk_size=CS, strategy=strategy,
        f_threshold=4096, batched=batched,
    )
    cluster = cluster or Cluster(n)
    world = World(n)
    reports = world.run(
        lambda comm: dump_output(
            comm,
            datasets[comm.rank],
            cfg,
            cluster,
            dump_id,
            fpcache=caches[comm.rank] if caches else None,
            dirty_regions=dirty[comm.rank] if dirty else None,
        )
    )
    return reports, cluster


def report_key(report):
    """Every accounting field of a DumpReport except the hash-work fields
    the cache is *supposed* to change (hashed_bytes, cache stats)."""
    d = dict(vars(report))
    d.pop("cache_hits")
    d.pop("cache_bytes_skipped")
    d.pop("hashed_bytes")
    return d


class TestDumpEquivalence:
    def test_batched_dump_matches_legacy_everywhere(self):
        n = 6
        datasets = [make_rank_dataset(r, chunk_size=CS) for r in range(n)]
        for strategy in Strategy:
            legacy_reports, legacy_cluster = run_dump(
                n, False, datasets, strategy=strategy,
            )
            batched_reports, batched_cluster = run_dump(
                n, True, datasets, strategy=strategy,
            )
            for lr, br in zip(legacy_reports, batched_reports):
                assert report_key(lr) == report_key(br)
            for rank in range(n):
                legacy_restored, _ = restore_dataset(legacy_cluster, rank)
                batched_restored, _ = restore_dataset(batched_cluster, rank)
                assert batched_restored == legacy_restored
                assert batched_restored == datasets[rank]

    def test_warm_cached_dump_identical_to_cold(self):
        n = 5
        base = [
            bytearray(np.random.RandomState(100 + r).bytes(CS * 12))
            for r in range(n)
        ]
        shared = b"S" * (CS * 4)
        datasets = [Dataset([shared, base[r]]) for r in range(n)]
        caches = [FingerprintCache(CS) for _ in range(n)]

        run_dump(n, True, datasets, caches=caches, dump_id=0)

        # Iterate: mutate one chunk of each rank's unique segment.
        for r in range(n):
            base[r][3 * CS] ^= 0xFF
        dirty = [[[], [(3 * CS, 3 * CS + 1)]] for _ in range(n)]

        warm_reports, warm_cluster = run_dump(
            n, True, datasets, caches=caches, dirty=dirty, dump_id=1
        )
        cold_reports, cold_cluster = run_dump(n, True, datasets, dump_id=1)

        for wr, cr in zip(warm_reports, cold_reports):
            assert report_key(wr) == report_key(cr)
            assert wr.cache_hits == 15  # 16 chunks per rank, 1 dirty
            assert wr.cache_bytes_skipped == 15 * CS
            assert wr.hashed_bytes == CS  # only the dirty chunk was hashed
        for rank in range(n):
            warm_restored, _ = restore_dataset(warm_cluster, rank, 1)
            cold_restored, _ = restore_dataset(cold_cluster, rank, 1)
            assert warm_restored == cold_restored
            assert warm_restored == datasets[rank]

    def test_lying_free_fallback_when_no_dirty_info(self):
        """No dirty_regions hook: the cache must rehash everything and the
        dump must still be byte-identical to an uncached one."""
        n = 4
        datasets = [make_rank_dataset(r, chunk_size=CS) for r in range(n)]
        caches = [FingerprintCache(CS) for _ in range(n)]
        run_dump(n, True, datasets, caches=caches, dump_id=0)
        cached_reports, cached_cluster = run_dump(
            n, True, datasets, caches=caches, dump_id=1
        )
        plain_reports, _ = run_dump(n, True, datasets, dump_id=1)
        for cr, pr in zip(cached_reports, plain_reports):
            assert cr.cache_hits == 0
            assert report_key(cr) == report_key(pr)
        for rank in range(n):
            restored, _ = restore_dataset(cached_cluster, rank, 1)
            assert restored == datasets[rank]
