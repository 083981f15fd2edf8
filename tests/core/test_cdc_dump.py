"""CDC-chunked DUMP_OUTPUT: the 'arbitrarily large chunk sizes' adaptation
the paper's Section IV promises, end to end."""

import hashlib

import pytest

from repro.core import Dataset, DumpConfig, Strategy, dump_output, restore_dataset
from repro.simmpi import World, WorldError
from repro.storage import Cluster


def _stream(n, tag):
    out = bytearray()
    i = 0
    while len(out) < n:
        out.extend(hashlib.blake2b(tag + i.to_bytes(4, "little")).digest())
        i += 1
    return bytes(out[:n])


class TestCDCConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="chunking"):
            DumpConfig(chunking="variable")
        with pytest.raises(ValueError, match="chunk_size"):
            DumpConfig(chunking="cdc", chunk_size=32)

    def test_cdc_chunker_bounds(self):
        cfg = DumpConfig(chunking="cdc", chunk_size=1024)
        chunks = cfg.make_chunker().split(_stream(50_000, b"y"))
        assert b"".join(chunks) == _stream(50_000, b"y")
        assert all(len(c) <= 1024 for c in chunks)


class TestCDCDump:
    def make_dataset(self, rank, shift=False):
        shared = _stream(16_000, b"shared")
        if shift:
            # Per-rank prefix of different lengths shifts the shared stream —
            # the scenario where fixed chunking finds no cross-rank dedup.
            shared = bytes([rank]) * (rank + 1) + shared
        unique = _stream(4_000, b"u%d" % rank)
        return Dataset([shared, unique])

    def run(self, chunking, shift):
        n = 5
        cfg = DumpConfig(replication_factor=3, chunk_size=1024,
                         chunking=chunking, f_threshold=4096)
        cluster = Cluster(n)
        self.world = World(n)
        reports = self.world.run(
            lambda comm: dump_output(
                comm, self.make_dataset(comm.rank, shift), cfg, cluster
            )
        )
        return reports, cluster, n

    @pytest.mark.parametrize("chunking", ["fixed", "cdc"])
    @pytest.mark.parametrize("shift", [False, True])
    def test_roundtrip(self, chunking, shift):
        reports, cluster, n = self.run(chunking, shift)
        for rank in range(n):
            restored, _ = restore_dataset(cluster, rank)
            assert restored == self.make_dataset(rank, shift)

    def test_cdc_rides_the_batched_exchange(self):
        """Variable-size chunks ship like fixed ones: one put per non-empty
        partner region, every sent chunk in exactly one wire slot."""
        reports, _cluster, n = self.run("cdc", shift=True)
        assert any(r.sent_chunks for r in reports)
        for rank, r in enumerate(reports):
            exchange = self.world.comms[rank].trace.counters("exchange")
            assert exchange.put_msgs == sum(1 for c in r.sent_per_partner if c)
            assert exchange.chunks == r.sent_chunks

    def test_fingerprint_cache_is_left_untouched(self):
        """A cache's column names fixed-grid chunks: a CDC dump refuses it
        before anything is stored."""
        from repro.core.fingerprint import Fingerprinter
        from repro.core.fpcache import FingerprintCache

        n = 3
        cfg = DumpConfig(replication_factor=2, chunk_size=1024, chunking="cdc")
        cluster = Cluster(n)
        columns = [
            FingerprintCache(1024).fingerprint_dataset(
                self.make_dataset(rank), Fingerprinter()
            )
            for rank in range(n)
        ]
        with pytest.raises(WorldError, match="ValueError.*fixed-grid"):
            World(n).run(
                lambda comm: dump_output(
                    comm, self.make_dataset(comm.rank), cfg, cluster,
                    fingerprints=columns[comm.rank],
                )
            )
        for node in cluster.nodes:
            assert node.chunks.chunk_count == 0
            assert not node.manifest_keys()

    def test_cdc_survives_shift_fixed_does_not(self):
        """On byte-shifted shared data, CDC still finds the cross-rank
        duplicates (and therefore sends less) while fixed chunking sees
        every rank's stream as unique."""
        fixed_reports, _c1, _ = self.run("fixed", shift=True)
        cdc_reports, _c2, _ = self.run("cdc", shift=True)
        fixed_sent = sum(r.sent_bytes for r in fixed_reports)
        cdc_sent = sum(r.sent_bytes for r in cdc_reports)
        assert cdc_sent < fixed_sent * 0.6

    def test_equal_on_aligned_data(self):
        """Without shifts both chunkings find the shared stream; CDC's
        discard counts confirm the global view still works on variable-size
        chunks."""
        _reports, cluster, n = self.run("cdc", shift=False)
        for rank in range(n):
            restored, _ = restore_dataset(cluster, rank)
            assert restored == self.make_dataset(rank, shift=False)
