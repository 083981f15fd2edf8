"""Synthetic workload generator: exact redundancy control."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.synthetic import SyntheticWorkload
from repro.core import DumpConfig, Strategy
from repro.core.fingerprint import Fingerprinter
from repro.core.local_dedup import local_dedup_batched
from repro.sim import simulate_dump

CS = 256


class TestComposition:
    def test_class_counts_sum(self):
        w = SyntheticWorkload(chunks_per_rank=100, frac_global=0.3, frac_group=0.1,
                              frac_zero=0.1, frac_local_dup=0.2)
        counts = w.class_counts()
        assert sum(counts.values()) == 100
        assert counts["global"] == 30
        assert counts["unique"] == 30

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(frac_global=0.9, frac_zero=0.3)
        with pytest.raises(ValueError):
            SyntheticWorkload(frac_global=-0.1)
        with pytest.raises(ValueError):
            SyntheticWorkload(group_size=0)

    def test_per_rank_size_exact(self):
        w = SyntheticWorkload(chunks_per_rank=64, chunk_size=CS)
        assert w.per_rank_bytes(4) == 64 * CS

    @given(data=st.data())
    def test_per_rank_bytes_is_the_declared_geometry(self, data):
        """Any class mix, chunk count (0 included) and rank: the size read
        off the geometry is the size of the bytes the rank dumps."""
        weights = data.draw(st.lists(st.integers(0, 9), min_size=5, max_size=5))
        total = sum(weights) or 1
        n = data.draw(st.integers(1, 6), label="n_ranks")
        rank = data.draw(st.integers(0, n - 1), label="rank")
        w = SyntheticWorkload(
            chunks_per_rank=data.draw(st.integers(0, 40), label="chunks"),
            chunk_size=data.draw(st.integers(1, 300), label="chunk_size"),
            frac_global=weights[0] / total,
            frac_group=weights[1] / total,
            frac_zero=weights[2] / total,
            frac_local_dup=weights[3] / total,
            group_size=data.draw(st.integers(1, 4), label="group_size"),
            local_dup_degree=data.draw(st.integers(1, 5), label="dup_degree"),
            seed=data.draw(st.integers(0, 3), label="seed"),
        )
        assert w.per_rank_bytes(n, rank) == w.build_dataset(rank, n).nbytes

    def test_deterministic_across_instances(self):
        a = SyntheticWorkload(chunks_per_rank=16, chunk_size=CS, seed=3)
        b = SyntheticWorkload(chunks_per_rank=16, chunk_size=CS, seed=3)
        assert a.build_dataset(2, 4).to_bytes() == b.build_dataset(2, 4).to_bytes()

    def test_seed_changes_content(self):
        a = SyntheticWorkload(chunks_per_rank=16, chunk_size=CS, seed=1)
        b = SyntheticWorkload(chunks_per_rank=16, chunk_size=CS, seed=2)
        assert a.build_dataset(0, 4).to_bytes() != b.build_dataset(0, 4).to_bytes()


class TestExpectedRedundancy:
    def test_local_unique_prediction_exact(self):
        w = SyntheticWorkload(
            chunks_per_rank=50, chunk_size=CS, frac_global=0.2, frac_group=0.1,
            frac_zero=0.1, frac_local_dup=0.2, local_dup_degree=5,
        )
        idx = local_dedup_batched(w.build_dataset(3, 8), Fingerprinter("sha1"), CS)
        assert idx.unique_chunks == w.expected_local_unique_chunks()

    def test_global_distinct_prediction_exact(self):
        w = SyntheticWorkload(
            chunks_per_rank=50, chunk_size=CS, frac_global=0.2, frac_group=0.2,
            group_size=3, frac_zero=0.1, frac_local_dup=0.2,
        )
        n = 9
        indices = w.build_indices(n, chunk_size=CS)
        distinct = set()
        for idx in indices:
            distinct.update(idx.counts)
        assert len(distinct) == w.expected_global_distinct_chunks(n)

    def test_group_sharing(self):
        w = SyntheticWorkload(chunks_per_rank=20, chunk_size=CS, frac_group=0.5,
                              group_size=2, frac_global=0.0, frac_zero=0.0,
                              frac_local_dup=0.0)
        i0 = w.build_indices(4, chunk_size=CS)
        group_fps_0 = set(i0[0].counts) & set(i0[1].counts)
        group_fps_2 = set(i0[2].counts) & set(i0[3].counts)
        assert len(group_fps_0) == 10
        assert not (group_fps_0 & group_fps_2)

    def test_zero_chunks_shared_everywhere(self):
        w = SyntheticWorkload(chunks_per_rank=10, chunk_size=CS, frac_zero=0.3,
                              frac_global=0.0, frac_local_dup=0.0)
        indices = w.build_indices(5, chunk_size=CS)
        zero_fp = Fingerprinter("sha1")(b"\x00" * CS)
        for idx in indices:
            assert idx.counts[zero_fp] == 3


class TestDedupPipelineIntegration:
    def test_all_global_dedups_to_k_copies(self):
        w = SyntheticWorkload(chunks_per_rank=20, chunk_size=CS, frac_global=1.0,
                              frac_zero=0.0, frac_local_dup=0.0)
        indices = w.build_indices(10, chunk_size=CS)
        cfg = DumpConfig(replication_factor=3, chunk_size=CS,
                         strategy=Strategy.COLL_DEDUP, f_threshold=10_000)
        result = simulate_dump(indices, cfg)
        # 20 distinct chunks, each stored on exactly 3 of 10 ranks; zero
        # network traffic (natural replicas suffice).
        assert sum(r.sent_chunks for r in result.reports) == 0
        assert sum(r.stored_chunks for r in result.reports) == 60
