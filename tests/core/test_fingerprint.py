"""Fingerprint functions and accounting."""

import hashlib

import pytest
from hypothesis import given, strategies as st

import numpy as np

from repro.core.fingerprint import Fingerprinter, first_occurrences, supported_hashes

from tests.core import reference


class TestFingerprinter:
    def test_sha1_matches_hashlib(self):
        fp = Fingerprinter("sha1")
        assert fp(b"hello") == hashlib.sha1(b"hello").digest()
        assert fp.digest_size == 20

    @pytest.mark.parametrize(
        "name,size", [("sha1", 20), ("sha256", 32), ("md5", 16), ("blake2b", 16)]
    )
    def test_digest_sizes(self, name, size):
        fp = Fingerprinter(name)
        assert fp.digest_size == size
        assert len(fp(b"x")) == size

    def test_unknown_hash_raises(self):
        with pytest.raises(ValueError, match="unknown hash"):
            Fingerprinter("crc32")

    def test_supported_hashes_lists_all(self):
        assert set(supported_hashes()) == {
            "sha1", "sha256", "md5", "blake2b", "xx128",
        }

    def test_hashed_bytes_counter(self):
        fp = Fingerprinter("sha1")
        fp(b"abcd")
        fp(b"efg")
        assert fp.hashed_bytes == 7
        fp.reset_counter()
        assert fp.hashed_bytes == 0

    def test_fingerprint_all_preserves_order(self):
        fp = Fingerprinter("md5")
        chunks = [b"a", b"b", b"a"]
        fps = fp.fingerprint_all(chunks)
        assert fps[0] == fps[2] != fps[1]

    def test_iter_fingerprints_pairs(self):
        fp = Fingerprinter("sha1")
        pairs = list(fp.iter_fingerprints([b"x", b"y"]))
        assert [c for _f, c in pairs] == [b"x", b"y"]
        assert pairs[0][0] == hashlib.sha1(b"x").digest()

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_determinism_and_discrimination(self, a, b):
        fp = Fingerprinter("blake2b")
        assert fp(a) == fp(a)
        if a != b:
            assert fp(a) != fp(b)  # no collisions in practice


class TestXX128:
    """The vectorised non-cryptographic kernel behind hash_name="xx128"."""

    def test_digest_size_and_flags(self):
        fp = Fingerprinter("xx128")
        assert fp.digest_size == 16
        assert fp.vectorised
        assert len(fp(b"hello")) == 16
        assert not Fingerprinter("sha1").vectorised

    def test_scalar_and_matrix_kernels_agree(self):
        """fingerprint_segment's whole-matrix pass must produce the exact
        digests of the chunk-at-a-time scalar kernel — the dedup planner
        compares fingerprints across both paths."""
        fp = Fingerprinter("xx128")
        cs = 32
        data = bytes(range(256)) * 5  # 40 chunks
        batched = fp.fingerprint_segment(data, cs)
        scalar = [fp(data[i : i + cs]) for i in range(0, len(data), cs)]
        assert batched == scalar

    def test_tail_chunk(self):
        fp = Fingerprinter("xx128")
        cs = 32
        data = b"x" * (cs * 3 + 7)  # short final chunk
        batched = fp.fingerprint_segment(data, cs)
        assert len(batched) == 4
        assert batched[-1] == fp(data[cs * 3 :])

    def test_fingerprint_views_mixed_lengths(self):
        fp = Fingerprinter("xx128")
        views = [b"a" * 16, b"b" * 32, b"c" * 16, b"", b"d" * 32]
        assert fp.fingerprint_views(views) == [fp(bytes(v)) for v in views]

    def test_position_sensitivity(self):
        """A chunk's digest depends only on its content, not its row in the
        batch matrix; equal chunks at different offsets collide (that is
        what dedup needs) and single-byte edits do not."""
        fp = Fingerprinter("xx128")
        a = b"\x01" * 64
        b_ = b"\x01" * 63 + b"\x02"
        fps = fp.fingerprint_segment(a + b_ + a, 64)
        assert fps[0] == fps[2] != fps[1]

    def test_hashed_bytes_batch_accumulated(self):
        fp = Fingerprinter("xx128")
        fp.fingerprint_segment(b"z" * 128, 32)
        fp.fingerprint_views([b"q" * 32])
        fp(b"pq")
        assert fp.hashed_bytes == 128 + 32 + 2
        fp.reset_counter()
        assert fp.hashed_bytes == 0

    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_determinism_and_discrimination(self, a, b):
        fp = Fingerprinter("xx128")
        assert fp(a) == fp(a)
        if a != b:
            assert fp(a) != fp(b)


class TestFirstOccurrences:
    """The collapse under local dedup and the window decode, against the
    per-row dict reference."""

    #: digests that tie on their first eight bytes (the sort key) but not
    #: on the rest, beside ones that differ early, and NUL tails
    _digest = st.sampled_from(
        [b"A" * 8 + bytes([t]) * 12 for t in (0, 1, 2)]
        + [b"B" * 20, b"A" * 7 + b"\x00" * 13, b"\x00" * 20]
    )

    @given(st.lists(_digest, max_size=40), st.booleans())
    def test_matches_reference(self, digests, strided):
        column = np.frombuffer(b"".join(digests), dtype=np.dtype((np.void, 20)))
        if strided:  # a field of a record array, as the window decode reads it
            records = np.zeros(len(digests), dtype=[("fp", "V20"), ("pad", "u4")])
            records["fp"] = column
            column = records["fp"]
        first, counts, inverse = first_occurrences(column)
        assert (first.tolist(), counts.tolist(), inverse.tolist()) == (
            reference.first_occurrences(digests)
        )

    @pytest.mark.parametrize("width", [4, 16, 32])
    def test_other_widths(self, width):
        digests = [bytes([i % 3]) * width for i in range(7)]
        column = np.frombuffer(b"".join(digests), dtype=np.dtype((np.void, width)))
        got = first_occurrences(column)
        assert tuple(a.tolist() for a in got) == reference.first_occurrences(digests)
