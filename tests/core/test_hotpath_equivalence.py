"""Equivalence of the dump hot path with the naive per-chunk reference.

The dump's building blocks (zero-copy batch fingerprinting, array-backed
local dedup, packed per-partner exchange) and the cross-dump fingerprint
cache are pure performance work: every observable — wire bytes, the
``LocalIndex``, DumpReport accounting, restored datasets — must be
identical to the per-chunk loops in ``tests/core/reference.py``.  These
tests pin that, property-style where the input space matters.  Whole-dump
decisions are held against ``repro.sim.simulate_dump`` in
``tests/sim/test_driver_equivalence.py``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.chunking import Dataset
from repro.core.fingerprint import Fingerprinter
from repro.core.fpcache import FingerprintCache
from repro.core.local_dedup import local_dedup_batched
from repro.core.wire import decode_region_unique, encode_records_into, slot_nbytes
from repro.simmpi import World
from repro.storage import Cluster

from tests.conftest import make_rank_dataset
from tests.core.reference import decode_region, encode_record, local_dedup
from tests.core.reference import decode_region_unique as reference_decode_unique

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


def assert_decodes_like_reference(window, start, count, chunk=CHUNK):
    try:
        expected = reference_decode_unique(window, DIGEST, chunk, start, count)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            decode_region_unique(window, DIGEST, chunk, start, count)
        assert str(raised.value) == str(exc)
        return
    assert decode_region_unique(window, DIGEST, chunk, start, count) == expected


class TestWireCodecEquivalence:
    @given(records=records_strategy)
    def test_encode_matches_reference_bytes(self, records):
        legacy = b"".join(encode_record(fp, c, CHUNK) for fp, c in records)
        buf = bytearray(len(records) * slot_nbytes(DIGEST, CHUNK))
        packed = encode_records_into(buf, records, DIGEST, CHUNK)
        assert packed == len(records)
        assert bytes(buf) == legacy

    @given(records=records_strategy, data=st.data())
    def test_decode_matches_reference(self, records, data):
        window = b"".join(encode_record(fp, c, CHUNK) for fp, c in records)
        start = data.draw(
            st.integers(min_value=0, max_value=len(records)), label="start"
        )
        count = data.draw(
            st.integers(min_value=0, max_value=len(records) - start),
            label="count",
        )
        # The region collapsed to distinct fingerprints in first-occurrence
        # order, each with its first payload and its multiplicity; a repeat
        # whose length disagrees with the first is refused at the same slot.
        assert_decodes_like_reference(window, start, count)

    @given(records=records_strategy)
    def test_round_trip_through_reused_buffer(self, records):
        # A dirty, reused buffer must not leak stale bytes into the region.
        buf = bytearray(b"\xaa" * (max(len(records), 1) * slot_nbytes(DIGEST, CHUNK)))
        encode_records_into(buf, records, DIGEST, CHUNK)
        decoded = decode_region(bytes(buf), DIGEST, CHUNK, 0, len(records))
        assert decoded == records

    @given(
        records=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255).map(fp_of),
                st.one_of(
                    st.binary(min_size=CHUNK, max_size=CHUNK),
                    st.binary(max_size=CHUNK - 1),
                ),
                st.booleans(),
            ),
            max_size=12,
        ),
        start=st.integers(min_value=0, max_value=3),
    )
    def test_mixed_payloads_into_a_dirty_buffer(self, records, start):
        # Full and short payloads, some as views, at a slot offset of a
        # buffer full of stale bytes: every slot byte is the reference's,
        # and nothing outside the records' slots moves.
        slot = slot_nbytes(DIGEST, CHUNK)
        buf = bytearray(b"\xaa" * ((start + len(records) + 1) * slot))
        packed = encode_records_into(
            memoryview(buf),
            [(fp, memoryview(c) if as_view else c) for fp, c, as_view in records],
            DIGEST, CHUNK, start_slot=start,
        )
        assert packed == len(records)
        legacy = b"".join(encode_record(fp, c, CHUNK) for fp, c, _ in records)
        stale = b"\xaa" * slot
        assert bytes(buf) == stale * start + legacy + stale

    @pytest.mark.parametrize("short_every", [0, 7])
    def test_regions_past_one_block(self, short_every):
        # The codec cuts its temporaries into ~1 MiB blocks of slots: a
        # 2.4 MiB region round-trips, full payloads only (gathered) or with
        # short ones in every block (sliced).
        chunk = 4096
        rng = np.random.RandomState(7)
        records = [
            (
                fp_of(i % 251) + bytes([i // 251]),
                rng.bytes(i % chunk if short_every and i % short_every == 0 else chunk),
            )
            for i in range(600)
        ]
        buf = bytearray(b"\xaa" * (len(records) * slot_nbytes(DIGEST + 1, chunk)))
        encode_records_into(buf, records, DIGEST + 1, chunk)
        assert bytes(buf) == b"".join(encode_record(fp, c, chunk) for fp, c in records)
        pairs, mults, nbytes = decode_region_unique(
            buf, DIGEST + 1, chunk, 0, len(records)
        )
        assert pairs == records and mults == [1] * len(records)
        assert nbytes == sum(len(c) for _fp, c in records)

    def test_decode_rejects_truncated_window(self):
        window = encode_record(fp_of(1), b"a", CHUNK)
        with pytest.raises(ValueError, match="truncated"):
            decode_region_unique(window[:-1], DIGEST, CHUNK, 0, 1)

    def test_decode_rejects_corrupt_length(self):
        record = bytearray(encode_record(fp_of(1), b"a", CHUNK))
        record[DIGEST] = 0xFF  # length field now > CHUNK
        with pytest.raises(ValueError, match="corrupt"):
            decode_region_unique(bytes(record), DIGEST, CHUNK, 0, 1)


# -- local dedup --------------------------------------------------------------

segments_strategy = st.lists(
    st.binary(min_size=0, max_size=5 * CHUNK), min_size=0, max_size=4
)


def assert_same_index(index, reference):
    assert index.order == reference.order
    # Dict *iteration order* is part of the contract (plans and wire order
    # derive from first-occurrence order).
    assert list(index.counts.items()) == list(reference.counts.items())
    assert list(index.unique.items()) == list(reference.unique.items())
    assert list(index.chunk_sizes.items()) == list(reference.chunk_sizes.items())


#: CDC at its smallest legal maximum (min 16 / avg 64 / max 128): segments
#: drawn below include empty ones, ones shorter than ``min_size`` (a single
#: short chunk) and runs of one byte (every chunk hits ``max_size``, so the
#: index has real duplicates).
CDC_MAX = 128
cdc_segments_strategy = st.lists(
    st.one_of(
        st.just(b""),
        st.binary(min_size=1, max_size=15),
        st.binary(min_size=16, max_size=6 * CDC_MAX),
        st.integers(1, 5).map(lambda n: b"\x07" * (n * CDC_MAX)),
    ),
    min_size=0,
    max_size=4,
)


class TestLocalDedupEquivalence:
    @given(segments=segments_strategy, hash_name=st.sampled_from(["sha1", "xx128"]))
    def test_index_identical_to_reference(self, segments, hash_name):
        ds = Dataset(segments)
        reference = local_dedup(ds, Fingerprinter(hash_name), CHUNK)
        fpr = Fingerprinter(hash_name)
        assert_same_index(local_dedup_batched(ds, fpr, CHUNK), reference)
        assert fpr.hashed_bytes == ds.nbytes

    @given(
        segments=cdc_segments_strategy,
        hash_name=st.sampled_from(["sha1", "xx128"]),
    )
    def test_cdc_index_identical_to_reference(self, segments, hash_name):
        cfg = DumpConfig(chunking="cdc", chunk_size=CDC_MAX, hash_name=hash_name)
        chunker = cfg.make_chunker()
        ds = Dataset(segments)
        reference = local_dedup(
            ds, Fingerprinter(cfg.effective_hash_name), CDC_MAX,
            chunker=chunker.split,
        )
        fpr = Fingerprinter(cfg.effective_hash_name)
        index = local_dedup_batched(
            ds, fpr, CDC_MAX,
            boundaries=[chunker.boundaries(seg) for seg in segments],
        )
        assert_same_index(index, reference)
        assert fpr.hashed_bytes == ds.nbytes
        assert sum(
            index.chunk_sizes[fp] * n for fp, n in index.counts.items()
        ) == ds.nbytes

    @given(
        segments=st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), max_size=6),
                st.integers(0, 2),
            ),
            min_size=2,
            max_size=5,
        ),
        hash_name=st.sampled_from(["sha1", "xx128"]),
    )
    def test_multi_segment_tails_match_reference(self, segments, hash_name):
        # Segments cut from a pool of full chunks, each ending in a tail from
        # a pool of short ones (or none): repeats inside a segment, across
        # segments and between tails.
        full = [bytes([i]) * CHUNK for i in range(4)]
        tails = [b"", b"t", b"\x00" * (CHUNK - 1)]
        ds = Dataset(
            [b"".join(full[i] for i in rows) + tails[t] for rows, t in segments]
        )
        reference = local_dedup(ds, Fingerprinter(hash_name), CHUNK)
        assert_same_index(
            local_dedup_batched(ds, Fingerprinter(hash_name), CHUNK), reference
        )

    def test_payload_gather_past_one_block(self):
        # Payloads of whole grid chunks are gathered ~1 MiB at a time, per
        # segment, beside each segment's tail.
        chunk = 4096
        rng = np.random.RandomState(3)
        pool = [rng.bytes(chunk) for _ in range(340)]
        segments = [
            b"".join(pool[i % 300] for i in range(400)) + b"tail",
            b"".join(pool[300 + (7 * i) % 40] for i in range(90)) + b"tail",
            b"".join(pool[(3 * i) % 340] for i in range(20)),
        ]
        ds = Dataset(segments)
        reference = local_dedup(ds, Fingerprinter(), chunk)
        assert_same_index(local_dedup_batched(ds, Fingerprinter(), chunk), reference)

    @given(segments=segments_strategy)
    def test_warm_cache_index_identical_to_cold(self, segments):
        """A column from a warm cache, handed in, builds the index a cold
        hash builds, and the index hashes nothing."""
        ds = Dataset(segments)
        cache = FingerprintCache(CHUNK)
        cold = local_dedup_batched(ds, Fingerprinter(), CHUNK)
        cache.fingerprint_dataset(ds, Fingerprinter())
        all_clean = [[] for _ in segments]
        column = cache.fingerprint_dataset(ds, Fingerprinter(), all_clean)
        assert cache.take_stats().bytes_hashed == ds.nbytes  # the cold call
        fpr = Fingerprinter()
        warm = local_dedup_batched(ds, fpr, CHUNK, fingerprints=column)
        assert warm.order == cold.order
        assert list(warm.unique.items()) == list(cold.unique.items())
        assert fpr.hashed_bytes == 0


# -- full dump ----------------------------------------------------------------

def run_dump(n, datasets, columns=None, k=3, dump_id=0,
             cluster=None, strategy=Strategy.COLL_DEDUP):
    cfg = DumpConfig(
        replication_factor=k, chunk_size=CS, strategy=strategy,
        f_threshold=4096,
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
            fingerprints=columns[comm.rank] if columns else None,
        )
    )
    return reports, cluster


def report_key(report):
    """Every accounting field of a DumpReport except the hash work a given
    column is *supposed* to change (hashed_bytes)."""
    d = dict(vars(report))
    d.pop("hashed_bytes")
    return d


def cached_columns(caches, datasets, dirty=None):
    """Each rank's column through its parent-side cache, and the stats of
    that call."""
    columns = [
        cache.fingerprint_dataset(ds, Fingerprinter(), dirty[r] if dirty else None)
        for r, (cache, ds) in enumerate(zip(caches, datasets))
    ]
    return columns, [cache.take_stats() for cache in caches]


class TestDumpEquivalence:
    def test_warm_cached_dump_identical_to_cold(self):
        n = 5
        base = [
            bytearray(np.random.RandomState(100 + r).bytes(CS * 12))
            for r in range(n)
        ]
        shared = b"S" * (CS * 4)
        datasets = [Dataset([shared, base[r]]) for r in range(n)]
        caches = [FingerprintCache(CS) for _ in range(n)]

        columns, _stats = cached_columns(caches, datasets)
        run_dump(n, datasets, columns=columns, dump_id=0)

        # Iterate: mutate one chunk of each rank's unique segment.
        for r in range(n):
            base[r][3 * CS] ^= 0xFF
        dirty = [[[], [(3 * CS, 3 * CS + 1)]] for _ in range(n)]

        columns, stats = cached_columns(caches, datasets, dirty)
        warm_reports, warm_cluster = run_dump(
            n, datasets, columns=columns, dump_id=1
        )
        cold_reports, cold_cluster = run_dump(n, datasets, dump_id=1)

        for st, wr, cr in zip(stats, warm_reports, cold_reports):
            assert report_key(wr) == report_key(cr)
            assert st.hits == 15  # 16 chunks per rank, 1 dirty
            assert st.bytes_skipped == 15 * CS
            assert st.bytes_hashed == CS  # only the dirty chunk was hashed
            assert wr.hashed_bytes == 0  # and the ranks hashed nothing
            assert cr.hashed_bytes == 16 * CS
        for rank in range(n):
            warm_restored, _ = restore_dataset(warm_cluster, rank, 1)
            cold_restored, _ = restore_dataset(cold_cluster, rank, 1)
            assert warm_restored == cold_restored
            assert warm_restored == datasets[rank]

    def test_lying_free_fallback_when_no_dirty_info(self):
        """No dirty_regions hook: the cache must rehash everything and the
        dump of its column must still be byte-identical to an uncached one."""
        n = 4
        datasets = [make_rank_dataset(r, chunk_size=CS) for r in range(n)]
        caches = [FingerprintCache(CS) for _ in range(n)]
        columns, _stats = cached_columns(caches, datasets)
        run_dump(n, datasets, columns=columns, dump_id=0)
        columns, stats = cached_columns(caches, datasets)
        cached_reports, cached_cluster = run_dump(
            n, datasets, columns=columns, dump_id=1
        )
        plain_reports, _ = run_dump(n, datasets, dump_id=1)
        for st, ds, cr, pr in zip(stats, datasets, cached_reports, plain_reports):
            assert st.hits == 0
            assert st.bytes_hashed == ds.nbytes
            assert report_key(cr) == report_key(pr)
        for rank in range(n):
            restored, _ = restore_dataset(cached_cluster, rank, 1)
            assert restored == datasets[rank]
