"""HMERGE: frequency union, top-F cap, load-balanced rank truncation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.hmerge import GlobalView, MergeEntry, MergeTable, hmerge


def table_of(rank, fps, k=3, f=100):
    return MergeTable.from_local(fps, rank, k, f)


def fp(i):
    return bytes([i]) * 20


class TestFromLocal:
    def test_initial_entries(self):
        t = table_of(5, [fp(1), fp(2)])
        assert len(t) == 2
        assert t.entries[fp(1)] == MergeEntry(freq=1, ranks=(5,))
        assert t.rank_load == {5: 2}

    def test_duplicate_inputs_collapsed(self):
        t = table_of(0, [fp(1), fp(1), fp(2)])
        assert len(t) == 2

    def test_f_cap_applied_at_leaf(self):
        t = table_of(0, [fp(i) for i in range(10)], f=4)
        assert len(t) == 4
        assert t.rank_load == {0: 4}
        # deterministic selection: smallest fingerprints survive
        assert set(t.entries) == {fp(0), fp(1), fp(2), fp(3)}

    def test_empty(self):
        t = table_of(0, [])
        assert len(t) == 0
        assert t.rank_load == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            MergeTable(k=0, f=1)
        with pytest.raises(ValueError):
            MergeTable(k=1, f=0)


class TestHMerge:
    def test_disjoint_union(self):
        out = hmerge(table_of(0, [fp(1)]), table_of(1, [fp(2)]))
        assert len(out) == 2
        assert out.entries[fp(1)].ranks == (0,)
        assert out.entries[fp(2)].ranks == (1,)
        assert out.rank_load == {0: 1, 1: 1}
        out.check_invariants()

    def test_frequency_sums(self):
        out = hmerge(table_of(0, [fp(1)]), table_of(1, [fp(1)]))
        assert out.entries[fp(1)].freq == 2
        assert out.entries[fp(1)].ranks == (0, 1)

    def test_mismatched_bounds_raise(self):
        with pytest.raises(ValueError):
            hmerge(table_of(0, [fp(1)], k=2), table_of(1, [fp(1)], k=3))

    def test_rank_list_capped_at_k(self):
        k = 2
        acc = table_of(0, [fp(1)], k=k)
        for rank in range(1, 6):
            acc = hmerge(acc, table_of(rank, [fp(1)], k=k))
        assert acc.entries[fp(1)].freq == 6
        assert len(acc.entries[fp(1)].ranks) == k
        acc.check_invariants()

    def test_truncation_drops_most_loaded_rank(self):
        """Rank 0 is designated for two other fingerprints; when fp(9)'s
        rank list overflows K=2, rank 0 must be the one evicted."""
        k = 2
        heavy = table_of(0, [fp(1), fp(2), fp(9)], k=k)
        light_a = table_of(1, [fp(9)], k=k)
        light_b = table_of(2, [fp(9)], k=k)
        out = hmerge(hmerge(heavy, light_a), light_b)
        ranks = out.entries[fp(9)].ranks
        assert len(ranks) == 2
        assert 0 not in ranks  # most loaded evicted first
        out.check_invariants()

    def test_top_f_keeps_most_frequent(self):
        f = 2
        a = table_of(0, [fp(1), fp(2), fp(3)], f=f)  # leaf cap keeps 1,2
        b = table_of(1, [fp(2), fp(3), fp(4)], f=f)  # leaf cap keeps 2,3
        out = hmerge(a, b)
        assert len(out) == f
        assert fp(2) in out  # freq 2 must survive
        out.check_invariants()

    def test_dropped_entries_release_load(self):
        f = 1
        a = table_of(0, [fp(1)], f=f)
        b = table_of(1, [fp(2)], f=f)
        out = hmerge(a, b)
        assert len(out) == 1
        # the surviving entry's rank keeps load 1; the other rank is gone
        surviving_rank = next(iter(out.entries.values())).ranks[0]
        assert out.rank_load == {surviving_rank: 1}
        out.check_invariants()

    def test_symmetry_simple(self):
        a = table_of(0, [fp(1), fp(2)])
        b = table_of(1, [fp(2), fp(3)])
        ab, ba = hmerge(a, b), hmerge(b, a)
        assert ab.entries == ba.entries
        assert ab.rank_load == ba.rank_load

    def test_purity_inputs_untouched(self):
        a = table_of(0, [fp(1)])
        b = table_of(1, [fp(1)])
        before_a = dict(a.entries)
        hmerge(a, b)
        assert a.entries == before_a
        assert a.rank_load == {0: 1}

    def test_overlapping_rank_lists_no_double_count(self):
        """Merging tables that share a designated rank (not possible in a
        reduction, but legal via the public API) must not inflate loads."""
        a = table_of(0, [fp(1)])
        b = table_of(0, [fp(1)])
        out = hmerge(a, b)
        assert out.entries[fp(1)].ranks == (0,)
        assert out.rank_load == {0: 1}
        out.check_invariants()

    def test_ranks_kept_sorted(self):
        out = hmerge(table_of(7, [fp(1)]), table_of(2, [fp(1)]))
        assert out.entries[fp(1)].ranks == (2, 7)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # rank
                st.lists(st.integers(0, 12), min_size=0, max_size=8),  # fp ids
            ),
            min_size=2,
            max_size=6,
            unique_by=lambda t: t[0],
        ),
        st.integers(1, 4),  # k
        st.integers(1, 20),  # f
    )
    def test_symmetry_property(self, rank_fps, k, f):
        tables = [table_of(rank, [fp(i) for i in ids], k=k, f=f) for rank, ids in rank_fps]
        a, b = tables[0], tables[1]
        ab, ba = hmerge(a, b), hmerge(b, a)
        assert ab.entries == ba.entries
        assert ab.rank_load == ba.rank_load
        ab.check_invariants()

    @given(
        st.lists(st.lists(st.integers(0, 30), max_size=10), min_size=1, max_size=8),
        st.integers(1, 4),
        st.integers(1, 8),
    )
    def test_fold_invariants(self, per_rank_ids, k, f):
        """Left-folding any number of tables preserves all invariants and
        never exceeds the F/K caps."""
        acc = table_of(0, [fp(i) for i in per_rank_ids[0]], k=k, f=f)
        for rank, ids in enumerate(per_rank_ids[1:], start=1):
            acc = hmerge(acc, table_of(rank, [fp(i) for i in ids], k=k, f=f))
        acc.check_invariants()
        for entry in acc.entries.values():
            assert entry.freq <= len(per_rank_ids)


class TestMergeEntryAndView:
    def test_entry_sorts_ranks(self):
        assert MergeEntry(freq=1, ranks=(3, 1, 2)).ranks == (1, 2, 3)

    def test_entry_rejects_zero_freq(self):
        with pytest.raises(ValueError):
            MergeEntry(freq=0, ranks=(0,))

    def test_view_from_table(self):
        t = hmerge(table_of(0, [fp(1)]), table_of(1, [fp(1)]))
        view = GlobalView.from_table(t)
        assert fp(1) in view
        assert view.designated(fp(1)) == (0, 1)
        assert view.designated(fp(9)) == ()
        assert len(view) == 1

    def test_nbytes_estimates_positive(self):
        t = table_of(0, [fp(1), fp(2)])
        assert t.nbytes_estimate() > 0
        assert GlobalView.from_table(t).nbytes_estimate() > 0

    def test_view_shares_the_table_columns(self):
        t = hmerge(table_of(0, [fp(1), fp(2)]), table_of(1, [fp(2)]))
        view = GlobalView.from_table(t)
        assert view.fps is t.fps and view.freq is t.freq and view.ranks is t.ranks
        assert view.k == t.k
        assert view.entries == t.entries
        assert view.get(fp(2)) == MergeEntry(freq=2, ranks=(0, 1))
        assert view.get(fp(9)) is None

    def test_rows_one_lookup(self):
        t = hmerge(table_of(0, [fp(1), fp(3)]), table_of(1, [fp(5)]))
        view = GlobalView.from_table(t)
        rows = view.rows([fp(5), fp(2), fp(1), fp(3), fp(9), fp(5)])
        assert rows.dtype == np.int64
        assert rows.tolist() == [2, -1, 0, 1, -1, 2]
        assert view.rows([]).tolist() == []
        empty = GlobalView.from_table(table_of(0, []))
        assert empty.rows([fp(1), fp(2)]).tolist() == [-1, -1]

    def test_rows_reject_other_widths(self):
        view = GlobalView.from_table(table_of(0, [fp(1)]))
        with pytest.raises(ValueError, match="widths differ"):
            view.rows([b"\x01" * 19])
        with pytest.raises(ValueError, match="uniform width"):
            view.rows([fp(1), b"\x01" * 21])


class TestWidthExact:
    """A fingerprint of another width is absent, never NUL-padded to a
    match: ``S`` comparison pads the shorter side."""

    STORED = b"\x01" * 19 + b"\x00"

    @pytest.mark.parametrize(
        "query",
        [b"\x01" * 19, b"\x01" * 19 + b"\x00\x00", b"\x01" * 19 + b"\x00" * 12],
        ids=["19B", "21B", "31B"],
    )
    def test_table_rejects_other_widths(self, query):
        t = table_of(0, [self.STORED, fp(7)])
        assert self.STORED in t
        assert query not in t

    @pytest.mark.parametrize(
        "query", [b"\x01" * 19, b"\x01" * 19 + b"\x00\x00", b""],
        ids=["19B", "21B", "0B"],
    )
    def test_view_rejects_other_widths(self, query):
        view = GlobalView.from_table(table_of(0, [self.STORED, fp(7)]))
        assert self.STORED in view and view.designated(self.STORED) == (0,)
        assert query not in view
        assert view.get(query) is None
        assert view.designated(query) == ()
        with pytest.raises(ValueError):
            view.rows([query])

    def test_from_local_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="uniform width"):
            table_of(0, [fp(1), b"\x01" * 19])


class TestVectorizedEntries:
    """The bulk-extraction `entries` path against a per-entry reference."""

    @staticmethod
    def reference_entries(table):
        import numpy as np

        from repro.core.hmerge import PAD

        width = table.digest_size
        out = {}
        for i in range(len(table.fps)):
            row = table.ranks[i]
            ranks = tuple(int(r) for r in row[row != PAD])
            key = bytes(table.fps[i]).ljust(width, b"\x00")
            out[key] = MergeEntry(freq=int(table.freq[i]), ranks=ranks)
        return out

    def test_matches_reference_after_merges(self):
        acc = table_of(0, [fp(i) for i in range(20)], k=3, f=15)
        for rank in range(1, 6):
            acc = hmerge(
                acc, table_of(rank, [fp(i) for i in range(rank, rank + 20)], k=3, f=15)
            )
        fast = acc.entries
        assert fast == self.reference_entries(acc)
        assert all(isinstance(k, bytes) and len(k) == 20 for k in fast)
        assert all(
            isinstance(r, int) and not hasattr(r, "dtype")
            for e in fast.values()
            for r in e.ranks
        ), "ranks must be Python ints, not numpy scalars"

    def test_trailing_nul_fingerprints_keep_width(self):
        # numpy S-dtype strips trailing NULs on element readback; the bulk
        # path must restore the fixed digest width.
        fps = [b"\x01" * 19 + b"\x00", b"\x00" * 20, fp(3)]
        t = table_of(0, fps)
        assert set(t.entries) == set(fps)
        assert t.entries == self.reference_entries(t)

    def test_trusted_skips_validation_but_agrees(self):
        assert MergeEntry._trusted(2, (1, 5)) == MergeEntry(freq=2, ranks=(1, 5))

    @given(
        st.lists(st.lists(st.integers(0, 30), max_size=10), min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(1, 12),
    )
    def test_matches_reference_property(self, per_rank_ids, k, f):
        acc = table_of(0, [fp(i) for i in per_rank_ids[0]], k=k, f=f)
        for rank, ids in enumerate(per_rank_ids[1:], start=1):
            acc = hmerge(acc, table_of(rank, [fp(i) for i in ids], k=k, f=f))
        assert acc.entries == self.reference_entries(acc)

    def test_global_view_wire_nbytes_matches_per_entry_sum(self):
        t = hmerge(
            table_of(0, [fp(i) for i in range(12)], k=3, f=10),
            table_of(1, [fp(i) for i in range(6, 18)], k=3, f=10),
        )
        view = GlobalView.from_table(t)
        per_entry = sum(len(f) + 4 + 4 * len(e.ranks) for f, e in view.entries.items())
        assert view.wire_nbytes is not None
        assert view.nbytes_estimate() == per_entry

    def test_no_regression_vs_reference(self):
        """The bulk path must not be slower than the per-entry loop.

        Generous 1.5x headroom: this guards against reintroducing per-entry
        numpy indexing, not against scheduler noise.
        """
        import time

        import numpy as np

        rng = np.random.default_rng(7)
        fps = [bytes(rng.integers(0, 256, 20, dtype=np.uint8)) for _ in range(8000)]
        t = MergeTable.from_local(fps, rank=0, k=4, f=1 << 17)
        t.entries  # warm both paths' imports/caches
        self.reference_entries(t)

        best_fast = min(
            (lambda s: (t.entries, time.perf_counter() - s))(time.perf_counter())[1]
            for _ in range(3)
        )
        best_ref = min(
            (lambda s: (self.reference_entries(t), time.perf_counter() - s))(
                time.perf_counter()
            )[1]
            for _ in range(3)
        )
        assert best_fast <= best_ref * 1.5, (best_fast, best_ref)
