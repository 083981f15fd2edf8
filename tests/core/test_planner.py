"""Replication planning: store/discard/send decisions and Load vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.global_dedup import simulate_global_view
from repro.core.hmerge import PAD, GlobalView, MergeEntry, MergeTable
from repro.core.local_dedup import index_from_fingerprints
from repro.core.planner import ReplicationPlan, build_plan, round_robin_share

from tests.core import reference


def fp(i):
    return bytes([i]) * 20


def view_of(entries, k=3):
    """The view of a merge table holding exactly ``entries`` (fingerprint ->
    MergeEntry), columns filled the way ``hmerge`` leaves them."""
    order = sorted(entries)
    width = max([k] + [len(entries[f].ranks) for f in order])
    table = MergeTable(k, max(1, len(order)))
    if order:
        table.fps = np.frombuffer(b"".join(order), dtype=f"S{len(order[0])}")
        table.freq = np.array([entries[f].freq for f in order], dtype=np.int64)
        table.ranks = np.full((len(order), width), PAD, dtype=np.int32)
        for row, f in enumerate(order):
            ranks = entries[f].ranks
            table.ranks[row, : len(ranks)] = ranks
    return GlobalView.from_table(table)


class TestRoundRobinShare:
    def test_even_split(self):
        # 4 extra copies over 2 designated ranks -> 2 each
        assert round_robin_share(4, 2, 0) == 2
        assert round_robin_share(4, 2, 1) == 2

    def test_uneven_split_front_loaded(self):
        # 3 extra over 2 ranks -> 2 for index 0, 1 for index 1
        assert round_robin_share(3, 2, 0) == 2
        assert round_robin_share(3, 2, 1) == 1

    def test_fewer_copies_than_ranks(self):
        assert round_robin_share(1, 3, 0) == 1
        assert round_robin_share(1, 3, 1) == 0
        assert round_robin_share(1, 3, 2) == 0

    def test_no_extra(self):
        assert round_robin_share(0, 2, 0) == 0

    def test_out_of_range_index(self):
        assert round_robin_share(2, 2, 5) == 0

    @given(st.integers(0, 20), st.integers(1, 10))
    def test_shares_sum_to_extra(self, extra, d):
        assert sum(round_robin_share(extra, d, j) for j in range(d)) == extra


class TestBuildPlanCollDedup:
    def test_unique_chunk_stored_and_fully_replicated(self):
        idx = index_from_fingerprints([fp(1)], 64)
        plan = build_plan(0, idx, view_of({}), k=3, world_size=5)
        assert plan.store_fps == [fp(1)]
        assert [len(p) for p in plan.partner_chunks] == [1, 1]
        assert plan.load == [1, 1, 1]

    def test_not_designated_discards(self):
        idx = index_from_fingerprints([fp(1)], 64)
        view = view_of({fp(1): MergeEntry(freq=5, ranks=(1, 2, 3))})
        plan = build_plan(0, idx, view, k=3, world_size=5)
        assert plan.store_fps == []
        assert plan.discarded_fps == [fp(1)]
        assert plan.load == [0, 0, 0]

    def test_undesignated_holder_of_a_short_entry_keeps_its_copy(self):
        """dst seed 1064: three ranks hold a chunk, K=3, but the view was
        truncated (``f_threshold=4``) and lists two of them.  The third
        holder sees fewer than K designated: "the desired replication
        factor was reached" does not hold, so it stores its copy and sends
        nothing (the designated pair's one top-up may land on each other)."""
        idx = index_from_fingerprints([fp(1)], 64)
        view = view_of({fp(1): MergeEntry(freq=2, ranks=(0, 1))})
        plan = build_plan(2, idx, view, k=3, world_size=3)
        assert plan.store_fps == [fp(1)]
        assert plan.discarded_fps == []
        assert plan.send_total == 0
        # ... and a full entry still discards, node-aware coverage included
        full = view_of({fp(1): MergeEntry(freq=3, ranks=(0, 1, 3))})
        assert build_plan(
            2, idx, full, k=3, world_size=4
        ).discarded_fps == [fp(1)]
        colocated = build_plan(
            2, idx, full, k=3, world_size=4, node_of=[0, 0, 1, 2]
        )
        assert colocated.store_fps == [fp(1)] and colocated.send_total == 0

    def test_designated_with_enough_replicas_stores_only(self):
        idx = index_from_fingerprints([fp(1)], 64)
        view = view_of({fp(1): MergeEntry(freq=5, ranks=(0, 1, 2))})
        plan = build_plan(0, idx, view, k=3, world_size=5)
        assert plan.store_fps == [fp(1)]
        assert plan.send_total == 0

    def test_designated_tops_up_missing_replicas(self):
        """D=1 < K=3: the single designated rank sends K-D=2 copies."""
        idx = index_from_fingerprints([fp(1)], 64)
        view = view_of({fp(1): MergeEntry(freq=1, ranks=(0,))})
        plan = build_plan(0, idx, view, k=3, world_size=5)
        assert plan.load == [1, 1, 1]

    def test_topup_round_robin_between_designated(self):
        """D=2 < K=4: 2 extra copies, one per designated rank, each going
        to that rank's first partner slot."""
        idx = index_from_fingerprints([fp(1)], 64)
        view = view_of({fp(1): MergeEntry(freq=2, ranks=(0, 3))}, k=4)
        plan0 = build_plan(0, idx, view, k=4, world_size=6)
        plan3 = build_plan(3, idx, view, k=4, world_size=6)
        assert plan0.load == [1, 1, 0, 0]
        assert plan3.load == [1, 1, 0, 0]

    def test_topup_uneven_assignment(self):
        """D=2 < K=5: 3 extra copies -> designated index 0 sends 2, index 1
        sends 1."""
        idx = index_from_fingerprints([fp(1)], 64)
        view = view_of({fp(1): MergeEntry(freq=2, ranks=(2, 4))}, k=5)
        plan2 = build_plan(2, idx, view, k=5, world_size=8)
        plan4 = build_plan(4, idx, view, k=5, world_size=8)
        assert plan2.load == [1, 1, 1, 0, 0]
        assert plan4.load == [1, 1, 0, 0, 0]

    def test_k_capped_by_world_size(self):
        idx = index_from_fingerprints([fp(1)], 64)
        plan = build_plan(0, idx, view_of({}), k=10, world_size=3)
        assert plan.k == 3
        assert plan.load == [1, 1, 1]

    def test_k1_local_only(self):
        idx = index_from_fingerprints([fp(1), fp(2)], 64)
        plan = build_plan(0, idx, view_of({}), k=1, world_size=4)
        assert plan.load == [2]
        assert plan.partner_chunks == []


class TestBuildPlanBaselines:
    def test_local_dedup_sends_unique_to_all_partners(self):
        idx = index_from_fingerprints([fp(1), fp(1), fp(2)], 64)
        plan = build_plan(0, idx, None, k=3, world_size=4)
        assert plan.load == [2, 2, 2]

    def test_no_dedup_replicates_every_occurrence(self):
        idx = index_from_fingerprints([fp(1), fp(1), fp(2)], 64)
        plan = build_plan(0, idx, None, k=3, world_size=4, dedup_local=False)
        assert plan.load == [3, 3, 3]
        assert plan.store_fps == [fp(1), fp(1), fp(2)]


def key(i):
    """Fingerprint ``i``; half of them end in a NUL byte, which an ``S``
    element read back would strip."""
    return bytes([i]) * 19 + (b"\x00" if i % 2 else b"\x07")


MODES = ("healthy", "node-aware", "parity", "degraded", "baseline", "mixed")


@st.composite
def planning_cases(draw, mode):
    """A world's local indices and the ``build_plan`` arguments its ranks
    share: up to 7 ranks with random (possibly empty) indices, ``k`` up to 6
    (so above the world size too), and a view from the reduction itself
    (F-truncated when ``f`` is small) or drawn freely, designations
    unrelated to who holds what."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 6))
    k_eff = min(k, n)
    pool = draw(st.integers(1, 14))
    per_rank = [
        draw(st.lists(st.integers(0, pool - 1), max_size=10)) for _ in range(n)
    ]
    indices = [index_from_fingerprints([key(i) for i in ids], 64) for ids in per_rank]
    nodes = st.lists(st.integers(0, max(0, n - 2)), min_size=n, max_size=n)
    lives = st.lists(st.booleans(), min_size=n, max_size=n)
    node_of = alive = None
    topup, dedup_local = True, True
    if mode == "node-aware":
        node_of = draw(nodes)
    elif mode == "parity":
        topup = False
    elif mode == "degraded":
        alive = draw(lives)
    elif mode == "mixed":
        node_of = draw(st.none() | nodes)
        alive = draw(st.none() | lives)
        topup = draw(st.booleans())
    view = None
    if mode == "baseline":
        dedup_local = draw(st.booleans())
    elif draw(st.booleans()):
        f = draw(st.integers(1, pool + 2))
        view = simulate_global_view(
            [idx.counts.keys() for idx in indices], k_eff, f, node_of=node_of
        )[0]
    else:
        listed = draw(st.sets(st.integers(0, pool - 1)))
        view = view_of(
            {
                key(i): MergeEntry(
                    freq=draw(st.integers(1, 9)),
                    ranks=tuple(sorted(draw(
                        st.sets(st.integers(0, n - 1), min_size=1, max_size=k)
                    ))),
                )
                for i in sorted(listed)
            },
            k=k_eff,
        )
    return indices, dict(
        view=view, k=k, world_size=n, dedup_local=dedup_local,
        node_of=node_of, topup=topup, alive=alive,
    )


class TestMatchesReference:
    """``build_plan`` equals the per-fingerprint loop of
    ``tests/core/reference.py`` list for list, in every mode."""

    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_rank_equals_reference_loop(self, mode, data):
        indices, kwargs = data.draw(planning_cases(mode))
        for rank, index in enumerate(indices):
            want = reference.build_plan(rank, index, **kwargs)
            assert build_plan(rank, index, **kwargs) == want, rank

    def test_empty_index(self):
        view = view_of({fp(1): MergeEntry(freq=2, ranks=(0, 1))})
        for alive in (None, [True, False, True]):
            for topup in (True, False):
                plan = build_plan(
                    0, index_from_fingerprints([], 64), view, k=3,
                    world_size=3, topup=topup, alive=alive,
                )
                assert plan == ReplicationPlan(rank=0, k=3, partner_chunks=[[], []])


class TestPlanAccounting:
    def test_byte_helpers(self):
        idx = index_from_fingerprints([fp(1), fp(2)], 64, last_chunk_size=10)
        plan = build_plan(0, idx, view_of({}), k=2, world_size=3)
        sizes = idx.chunk_sizes
        assert plan.store_bytes(sizes) == 74
        assert plan.send_bytes(sizes) == 74
        assert plan.send_total == 2

    def test_load_padded_to_k(self):
        plan = ReplicationPlan(rank=0, k=4)
        plan.partner_chunks = [[fp(1)]]
        assert plan.load == [0, 1, 0, 0]
