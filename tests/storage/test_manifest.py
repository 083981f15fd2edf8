"""Manifest serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.storage.manifest import Manifest


def fp(i):
    return bytes([i]) * 20


class TestRoundtrip:
    def test_basic(self):
        m = Manifest(
            rank=3,
            dump_id=7,
            segment_lengths=[100, 0, 4096],
            fingerprints=[fp(1), fp(2), fp(1)],
            chunk_size=4096,
        )
        out = Manifest.from_bytes(m.to_bytes())
        assert out.rank == 3
        assert out.dump_id == 7
        assert out.segment_lengths == [100, 0, 4096]
        assert out.fingerprints == [fp(1), fp(2), fp(1)]
        assert out.chunk_size == 4096

    def test_empty_manifest(self):
        m = Manifest(rank=0, dump_id=0)
        out = Manifest.from_bytes(m.to_bytes())
        assert out.fingerprints == []
        assert out.segment_lengths == []

    def test_properties(self):
        m = Manifest(rank=0, dump_id=0, segment_lengths=[10, 20], fingerprints=[fp(1)])
        assert m.total_bytes == 30
        assert m.total_chunks == 1
        assert m.key() == (0, 0)

    def test_mixed_digest_sizes_rejected(self):
        m = Manifest(rank=0, dump_id=0, fingerprints=[fp(1), b"short"])
        with pytest.raises(ValueError, match="mixed"):
            m.to_bytes()

    def test_trailing_bytes_detected(self):
        blob = Manifest(rank=0, dump_id=0, fingerprints=[fp(1)]).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            Manifest.from_bytes(blob + b"junk")

    def test_wrong_version_rejected(self):
        blob = bytearray(Manifest(rank=0, dump_id=0).to_bytes())
        blob[4] = 99  # the frame's u16 version follows its 4-byte magic
        with pytest.raises(ValueError, match="version"):
            Manifest.from_bytes(bytes(blob))

    @given(
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        st.lists(st.integers(0, 2**40), max_size=8),
        st.lists(st.binary(min_size=16, max_size=16), max_size=50),
        st.integers(1, 2**20),
    )
    def test_roundtrip_property(self, rank, dump_id, seg_lengths, fps, chunk_size):
        m = Manifest(
            rank=rank,
            dump_id=dump_id,
            segment_lengths=seg_lengths,
            fingerprints=fps,
            chunk_size=chunk_size,
        )
        out = Manifest.from_bytes(m.to_bytes())
        assert (out.rank, out.dump_id) == (rank, dump_id)
        assert out.segment_lengths == seg_lengths
        assert out.fingerprints == fps
        assert out.chunk_size == chunk_size
