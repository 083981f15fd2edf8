"""Phase-1 local deduplication."""

from hypothesis import given, strategies as st

from repro.core.chunking import Dataset
from repro.core.fingerprint import Fingerprinter
from repro.core.local_dedup import index_from_fingerprints, local_dedup_batched


def _index(data_segments, chunk_size=4, keep=True):
    return local_dedup_batched(
        Dataset(data_segments), Fingerprinter("sha1"), chunk_size, keep_payloads=keep
    )


class TestLocalDedup:
    def test_duplicates_collapsed(self):
        idx = _index([b"aaaabbbbaaaa"])  # chunks: aaaa, bbbb, aaaa
        assert idx.total_chunks == 3
        assert idx.unique_chunks == 2
        assert idx.counts[idx.order[0]] == 2
        assert idx.counts[idx.order[1]] == 1

    def test_order_records_every_occurrence(self):
        idx = _index([b"xxxxyyyyxxxx"])
        assert len(idx.order) == 3
        assert idx.order[0] == idx.order[2]

    def test_first_occurrence_payload_kept(self):
        idx = _index([b"aaaabbbb"])
        payloads = list(idx.unique.values())
        assert payloads == [b"aaaa", b"bbbb"]

    def test_bytes_accounting(self):
        idx = _index([b"aaaa" * 3 + b"zz"])  # 3x aaaa + tail zz
        assert idx.total_bytes == 14
        assert idx.unique_bytes == 6  # aaaa + zz

    def test_tail_chunk_size_tracked(self):
        idx = _index([b"aaaaZ"])
        sizes = sorted(idx.chunk_sizes.values())
        assert sizes == [1, 4]

    def test_fingerprints_only_mode(self):
        idx = _index([b"aaaabbbb"], keep=False)
        assert idx.unique == {}
        assert idx.unique_chunks == 2
        assert idx.unique_bytes == 8

    def test_segment_boundaries_respected(self):
        # 'aaaa'+'a' vs 'aaaaa' chunk differently
        idx_a = _index([b"aaaa", b"a"])
        idx_b = _index([b"aaaaa"])
        assert idx_a.order == idx_b.order  # same chunks here: aaaa then a
        idx_c = _index([b"aa", b"aaa"])
        assert idx_c.unique_chunks == 2  # 'aa' and 'aaa'

    def test_empty_dataset(self):
        idx = _index([b""])
        assert idx.total_chunks == 0
        assert idx.unique_chunks == 0
        assert idx.total_bytes == 0

    def test_unique_fingerprints_first_occurrence_order(self):
        idx = _index([b"bbbbaaaabbbb"])
        fps = idx.unique_fingerprints()
        assert fps[0] == idx.order[0]
        assert fps[1] == idx.order[1]

    @given(st.lists(st.sampled_from([b"AAAA", b"BBBB", b"CCCC"]), max_size=20))
    def test_counts_match_multiset(self, chunk_seq):
        data = b"".join(chunk_seq)
        idx = _index([data])
        assert idx.total_chunks == len(chunk_seq)
        assert sum(idx.counts.values()) == len(chunk_seq)
        assert idx.unique_chunks == len(set(chunk_seq))


class TestIndexFromFingerprints:
    def test_basic(self):
        fps = [b"f1", b"f2", b"f1"]
        idx = index_from_fingerprints(fps, chunk_size=64)
        assert idx.total_chunks == 3
        assert idx.counts[b"f1"] == 2
        assert idx.chunk_sizes[b"f1"] == 64

    def test_last_chunk_size(self):
        idx = index_from_fingerprints([b"f1", b"f2"], chunk_size=64, last_chunk_size=10)
        assert idx.chunk_sizes[b"f2"] == 10
        assert idx.total_bytes == 74

    def test_empty(self):
        idx = index_from_fingerprints([], chunk_size=64)
        assert idx.total_chunks == 0
