"""Algorithm 2: rank shuffling and partner relations."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DumpConfig
from repro.core.offsets import place
from repro.core.shuffle import (
    identity_shuffle,
    inverse_positions,
    partners_of,
    rank_shuffle,
)
from tests.core import reference


class TestRankShuffle:
    def test_paper_figure2_example(self):
        """Two heavy senders (100 chunks) and four light (10), K=3: the
        heaviest is interleaved with the two lightest."""
        shuffle = rank_shuffle([100, 100, 10, 10, 10, 10], k=3)
        assert shuffle == [0, 5, 4, 1, 3, 2]

    def test_is_permutation(self):
        shuffle = rank_shuffle([5, 1, 9, 7, 3, 3, 0], k=3)
        assert sorted(shuffle) == list(range(7))

    def test_k1_gives_descending_order(self):
        assert rank_shuffle([1, 5, 3], k=1) == [1, 2, 0]

    def test_uniform_loads_deterministic(self):
        assert rank_shuffle([7, 7, 7, 7], k=2) == [0, 3, 1, 2]

    def test_empty(self):
        assert rank_shuffle([], k=3) == []

    def test_single(self):
        assert rank_shuffle([42], k=3) == [0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            rank_shuffle([1], k=0)

    def test_heaviest_first(self):
        shuffle = rank_shuffle([1, 100, 2, 3], k=4)
        assert shuffle[0] == 1

    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        st.integers(1, 6),
    )
    def test_permutation_property(self, loads, k):
        shuffle = rank_shuffle(loads, k)
        assert sorted(shuffle) == list(range(len(loads)))

    @given(
        st.lists(st.integers(0, 1000), max_size=40),
        st.integers(1, 6),
    )
    def test_one_rank_per_node_equals_reference(self, loads, k):
        """Without a map, and on the identity map, the node-aware shuffle is
        the paper's head/tail interleaving (``reference.rank_shuffle``)."""
        want = reference.rank_shuffle(loads, k)
        assert rank_shuffle(loads, k) == want
        assert rank_shuffle(loads, k, rank_to_node=list(range(len(loads)))) == want

    @given(
        st.lists(st.integers(0, 1000), min_size=2, max_size=30),
        st.integers(2, 5),
    )
    def test_heavy_ranks_spread_out(self, loads, k):
        """No two of the top-⌈N/K⌉ heaviest ranks are adjacent in shuffled
        order when the group structure allows it (each head is followed by
        K-1 tail entries)."""
        n = len(loads)
        shuffle = rank_shuffle(loads, k)
        order = sorted(range(n), key=lambda r: (-loads[r], r))
        n_heads = (n + k - 1) // k
        heads = set(order[:n_heads])
        positions = [i for i, r in enumerate(shuffle) if r in heads]
        # heads occupy positions 0, k, 2k, ... by construction
        assert positions == [i * k for i in range(len(positions))] or n < k


class TestPartnersAndSenders:
    def test_partners_basic(self):
        shuffle = [0, 1, 2, 3, 4]
        assert partners_of(0, shuffle, k=3) == [1, 2]
        assert partners_of(3, shuffle, k=3) == [4, 0]

    def test_partners_capped_at_world(self):
        shuffle = [0, 1, 2]
        assert partners_of(0, shuffle, k=10) == [1, 2]

    def test_k1_no_partners(self):
        assert partners_of(0, [0, 1], k=1) == []

    def test_senders_inverse_of_partners(self):
        loads = [[0, t, 0] for t in [3, 1, 4, 1, 5, 9, 2, 6]]
        placement = place(loads, DumpConfig(replication_factor=3))
        for me, partners in enumerate(placement.partners):
            assert len(partners) == 2
            for partner in partners:
                assert me in placement.senders(partner)

    def test_identity_shuffle(self):
        assert identity_shuffle(4) == [0, 1, 2, 3]

    def test_inverse_positions(self):
        shuffle = [2, 0, 3, 1]
        inv = inverse_positions(shuffle)
        for pos, rank in enumerate(shuffle):
            assert inv[rank] == pos
