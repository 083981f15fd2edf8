"""Workload base class: fingerprint caching honesty and process grids."""

import numpy as np
import pytest

from repro.apps.base import SegmentedWorkload, process_grid_2d, process_grid_3d
from repro.core.fingerprint import Fingerprinter
from repro.core.local_dedup import local_dedup_batched


class TwoClassWorkload(SegmentedWorkload):
    """Half the state shared, half rank-unique — with a hash-call counter
    to verify the cache only skips hashing when keys match."""

    name = "two-class"

    def rank_segments(self, rank, n_ranks):
        shared = b"S" * 1024
        unique = bytes([rank]) * 1024
        return [(("shared",), shared), ((("rank", rank)), unique)]


class TestBuildIndices:
    def test_indices_match_uncached_local_dedup(self):
        w = TwoClassWorkload()
        n = 5
        indices = w.build_indices(n, chunk_size=128)
        for rank in range(n):
            expected = local_dedup_batched(
                w.build_dataset(rank, n), Fingerprinter("sha1"), 128
            )
            assert indices[rank].order == expected.order
            assert indices[rank].counts == expected.counts
            assert indices[rank].chunk_sizes == expected.chunk_sizes

    def test_shared_segment_hashed_once(self):
        calls = []

        class Counting(TwoClassWorkload):
            def rank_segments(self, rank, n_ranks):
                calls.append(rank)
                return super().rank_segments(rank, n_ranks)

        w = Counting()
        w.build_indices(4, chunk_size=128)
        assert calls == [0, 1, 2, 3]  # segments listed once per rank

    def test_per_rank_bytes(self):
        w = TwoClassWorkload()
        assert w.per_rank_bytes(4) == 2048

    def test_none_key_always_hashed(self):
        class NoneKey(SegmentedWorkload):
            name = "nk"

            def rank_segments(self, rank, n_ranks):
                return [(None, bytes([rank]) * 256)]

        indices = NoneKey().build_indices(3, chunk_size=128)
        fps = [idx.order[0] for idx in indices]
        assert len(set(fps)) == 3

    def test_alternative_hash(self):
        w = TwoClassWorkload()
        sha = w.build_indices(2, chunk_size=128, hash_name="sha1")
        blake = w.build_indices(2, chunk_size=128, hash_name="blake2b")
        assert len(sha[0].order[0]) == 20
        assert len(blake[0].order[0]) == 16


class TestProcessGrids:
    @pytest.mark.parametrize("n", [1, 2, 6, 12, 64, 120, 196, 264, 408])
    def test_grid_2d_factors(self, n):
        px, py = process_grid_2d(n)
        assert px * py == n
        assert px <= py

    @pytest.mark.parametrize("n", [1, 8, 27, 64, 196, 408])
    def test_grid_3d_factors(self, n):
        px, py, pz = process_grid_3d(n)
        assert px * py * pz == n

    def test_grid_3d_prefers_cubes(self):
        assert sorted(process_grid_3d(64)) == [4, 4, 4]
        assert sorted(process_grid_3d(27)) == [3, 3, 3]

    def test_grid_2d_prefers_squares(self):
        assert sorted(process_grid_2d(64)) == [8, 8]
        assert sorted(process_grid_2d(12)) == [3, 4]
