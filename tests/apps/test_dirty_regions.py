"""The workloads' dirty_regions hooks: shape, honesty, end-to-end caching."""

import numpy as np

from repro.apps.base import SegmentedWorkload
from repro.apps.cm1 import CM1
from repro.apps.hpccg import HPCCG
from repro.core.chunking import as_bytes_view
from repro.core.fingerprint import Fingerprinter
from repro.core.fpcache import FingerprintCache
from repro.core.local_dedup import local_dedup_batched

CS = 4096


class _NoHook(SegmentedWorkload):
    name = "nohook"

    def rank_segments(self, rank, n_ranks):
        return [(None, b"\x01" * 100)]


def check_hook_shape(workload, rank, n_ranks):
    segments = workload.rank_segments(rank, n_ranks)
    regions = workload.dirty_regions(rank, n_ranks)
    assert regions is not None
    assert len(regions) == len(segments)
    for (key, buf), segment_regions in zip(segments, regions):
        nbytes = len(as_bytes_view(buf))
        assert segment_regions is not None
        for start, end in segment_regions:
            assert 0 <= start <= end <= nbytes
    return segments, regions


class TestHookShapes:
    def test_base_default_is_unknown(self):
        assert _NoHook().dirty_regions(0, 4) is None

    def test_hpccg_regions_align_with_segments(self):
        w = HPCCG(nx=4, ny=4, nz=4, max_iterations=3)
        for rank in (0, 3):
            segments, regions = check_hook_shape(w, rank, 8)
            # The operator arrays and slack must be declared clean, the
            # solver vectors dirty.
            dirty_count = sum(1 for r in regions if r)
            assert dirty_count == 4  # x, r, p, Ap

    def test_cm1_regions_align_with_segments(self):
        w = CM1(nx=8, ny=8, nz=4, n_steps=2)
        n_ranks = 16
        active = next(
            r for r in range(n_ranks) if w.rank_intersects_vortex(r, n_ranks)
        )
        calm = next(
            r for r in range(n_ranks) if not w.rank_intersects_vortex(r, n_ranks)
        )
        _, active_regions = check_hook_shape(w, active, n_ranks)
        _, calm_regions = check_hook_shape(w, calm, n_ranks)
        assert any(r for r in active_regions)
        # Calm subdomains are bitwise constant: everything clean.
        assert all(r == [] for r in calm_regions)


class TestHookHonesty:
    """A segment declared clean must actually be bitwise stable across
    checkpoint constructions — the cache's correctness contract."""

    def _assert_clean_is_stable(self, workload, rank, n_ranks):
        first = [
            bytes(as_bytes_view(buf))
            for _k, buf in workload.rank_segments(rank, n_ranks)
        ]
        regions = workload.dirty_regions(rank, n_ranks)
        second = [
            bytes(as_bytes_view(buf))
            for _k, buf in workload.rank_segments(rank, n_ranks)
        ]
        for a, b, segment_regions in zip(first, second, regions):
            if segment_regions == []:
                assert a == b

    def test_hpccg_clean_claims(self):
        w = HPCCG(nx=4, ny=4, nz=4, max_iterations=2)
        self._assert_clean_is_stable(w, 0, 8)

    def test_cm1_clean_claims(self):
        w = CM1(nx=8, ny=8, nz=4, n_steps=2)
        for rank in range(4):
            self._assert_clean_is_stable(w, rank, 4)


class TestEndToEndCaching:
    def test_hpccg_repeated_dump_skips_clean_chunks(self):
        w = HPCCG(nx=4, ny=4, nz=4, max_iterations=2)
        rank, n_ranks = 0, 8
        ds = w.build_dataset(rank, n_ranks)
        cache = FingerprintCache(CS)
        cold = local_dedup_batched(ds, Fingerprinter(), CS)
        cache.fingerprint_dataset(ds, Fingerprinter())
        cache.take_stats()

        ds2 = w.build_dataset(rank, n_ranks)
        fpr = Fingerprinter()
        column = cache.fingerprint_dataset(
            ds2, fpr, w.dirty_regions(rank, n_ranks)
        )
        warm = local_dedup_batched(ds2, Fingerprinter(), CS, fingerprints=column)
        assert warm.order == cold.order
        assert list(warm.unique.items()) == list(cold.unique.items())
        stats = cache.take_stats()
        assert stats.hits > 0
        assert fpr.hashed_bytes < ds.nbytes  # clean chunks were skipped
