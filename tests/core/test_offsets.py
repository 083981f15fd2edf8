"""Algorithm 3: window layout (sizes, offsets, exact packing)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DumpConfig
from repro.core.offsets import place, window_layout
from repro.core.shuffle import identity_shuffle, rank_shuffle
from tests.core import reference


def uniform_load(n, k, per_partner):
    return [[0] + [per_partner] * (k - 1) for _ in range(n)]


class TestWindowLayout:
    def test_uniform_loads(self):
        n, k = 4, 3
        layout = window_layout(identity_shuffle(n), uniform_load(n, k, 5), k)
        assert all(layout.window_slots[r] == 10 for r in range(n))
        layout.check_invariants()

    def test_paper_offset_convention(self):
        """Rank i's region in partner i+1's window starts at 0; in partner
        i+2's it starts after the send of i+1 to i+2 (distance-1 sender)."""
        n, k = 5, 3
        load = [[0, 10 * (r + 1), 100 * (r + 1)] for r in range(n)]
        layout = window_layout(identity_shuffle(n), load, k)
        # target 2: distance-1 sender is rank 1 (slot j=1 -> 20 chunks),
        # distance-2 sender is rank 0 (slot j=2 -> 100 chunks).
        assert layout.offset_of(1, 2) == 0
        assert layout.offset_of(0, 2) == 20
        assert layout.window_slots[2] == 120
        layout.check_invariants()

    def test_regions_ordered_by_distance(self):
        n, k = 4, 3
        layout = window_layout(identity_shuffle(n), uniform_load(n, k, 1), k)
        senders = [s for s, _st, _c in layout.regions[0]]
        assert senders == [3, 2]  # distance 1 then distance 2

    def test_zero_loads(self):
        n, k = 3, 3
        layout = window_layout(identity_shuffle(n), uniform_load(n, k, 0), k)
        assert all(s == 0 for s in layout.window_slots.values())
        layout.check_invariants()

    def test_k_exceeding_world_caps_senders(self):
        n, k = 3, 6
        load = [[0, 1, 1, 0, 0, 0] for _ in range(n)]
        layout = window_layout(identity_shuffle(n), load, k)
        assert all(len(layout.regions[r]) == n - 1 for r in range(n))
        layout.check_invariants()

    def test_k1_empty_windows(self):
        layout = window_layout(identity_shuffle(4), [[7]] * 4, 1)
        assert all(s == 0 for s in layout.window_slots.values())
        assert layout.regions[0] == []

    def test_short_rows_treated_as_zero(self):
        layout = window_layout(identity_shuffle(2), [[3], [3]], 2)
        assert layout.window_slots == {0: 0, 1: 0}

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            window_layout(identity_shuffle(3), [[0, 1]] * 2, 2)

    def test_respects_shuffle_order(self):
        n, k = 4, 2
        shuffle = [2, 0, 3, 1]
        load = [[0, r + 1] for r in range(n)]
        layout = window_layout(shuffle, load, k)
        # partner of shuffled position 0 (rank 2) is position 1 (rank 0):
        assert layout.offset_of(2, 0) == 0
        assert layout.window_slots[0] == 3  # rank 2 sends 3 to its partner

    @given(
        st.integers(2, 12),
        st.integers(2, 6),
        st.data(),
    )
    def test_exact_packing_property(self, n, k, data):
        """Every window is tiled exactly by its sender regions, and the sum
        of window sizes equals the sum of send loads (chunk conservation)."""
        loads = [
            [0] + [data.draw(st.integers(0, 50)) for _ in range(k - 1)]
            for _ in range(n)
        ]
        totals = [sum(row[1:]) for row in loads]
        shuffle = rank_shuffle(totals, k)
        layout = window_layout(shuffle, loads, k)
        layout.check_invariants()
        sendable_slots = min(k, n) - 1
        expected_total = sum(sum(row[1 : sendable_slots + 1]) for row in loads)
        assert sum(layout.window_slots.values()) == expected_total


class TestPlace:
    @given(st.integers(1, 12), st.integers(1, 6), st.booleans(), st.data())
    def test_senders_match_reference_and_partners(self, n, k, shuffle, data):
        """On any loads, K, rank -> node map and liveness snapshot, a
        window's senders are the reference backward walk, and every
        partner/sender pair is mutual."""
        loads = [
            [0] + [data.draw(st.integers(0, 20)) for _ in range(k - 1)]
            for _ in range(n)
        ]
        rank_to_node = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        )
        dead = data.draw(st.sets(st.sampled_from(sorted(set(rank_to_node)))))
        alive = [node not in dead for node in rank_to_node]
        config = DumpConfig(replication_factor=k, shuffle=shuffle)
        placement = place(loads, config, rank_to_node, alive)
        k_eff = config.effective_k(n)
        for rank in range(n):
            pos = placement.positions[rank]
            assert placement.shuffle[pos] == rank
            assert placement.senders(rank) == reference.senders_to(
                pos, placement.shuffle, k_eff, alive
            )
            for partner in placement.partners[rank]:
                assert rank in placement.senders(partner)
            for sender in placement.senders(rank):
                assert rank in placement.partners[sender]
