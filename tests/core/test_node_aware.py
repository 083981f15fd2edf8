"""Node-aware partner selection (paper §VI extension)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DumpConfig, Strategy
from repro.core.shuffle import node_aware_shuffle, partners_of, rank_shuffle
from repro.sim import compute_metrics, simulate_dump


class TestNodeAwareShuffle:
    def test_is_permutation(self):
        shuffle = node_aware_shuffle([5, 3, 8, 1, 9, 2], k=3,
                                     rank_to_node=[0, 0, 1, 1, 2, 2])
        assert sorted(shuffle) == list(range(6))

    def test_one_rank_per_node_behaves_like_plain_shuffle_structure(self):
        totals = [100, 100, 10, 10, 10, 10]
        shuffle = node_aware_shuffle(totals, k=3, rank_to_node=list(range(6)))
        # Same head positions as Algorithm 2 (heaviest at 0, k, 2k, ...).
        assert shuffle[0] in (0, 1)
        assert shuffle[3] in (0, 1)

    def test_partners_land_on_distinct_nodes(self):
        n, k, rpn = 12, 3, 3
        rank_to_node = [r // rpn for r in range(n)]
        shuffle = node_aware_shuffle([1] * n, k, rank_to_node)
        # The greedy construction guarantees node-distinct K-windows except
        # across the wrap-around seam, which it cannot see.
        for pos in range(n - (k - 1)):
            me = shuffle[pos]
            nodes = {rank_to_node[me]}
            for partner in partners_of(pos, shuffle, k):
                assert rank_to_node[partner] not in nodes
                nodes.add(rank_to_node[partner])

    def test_fallback_when_fewer_nodes_than_k(self):
        # 2 nodes, K=4: impossible to be node-distinct; must not crash.
        shuffle = node_aware_shuffle([3, 1, 4, 1], k=4, rank_to_node=[0, 0, 1, 1])
        assert sorted(shuffle) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            node_aware_shuffle([1, 2], k=0, rank_to_node=[0, 1])
        with pytest.raises(ValueError):
            node_aware_shuffle([1, 2], k=2, rank_to_node=[0])

    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=24),
        st.integers(2, 4),
        st.integers(1, 4),
    )
    def test_permutation_property(self, totals, k, rpn):
        rank_to_node = [r // rpn for r in range(len(totals))]
        shuffle = node_aware_shuffle(totals, k, rank_to_node)
        assert sorted(shuffle) == list(range(len(totals)))


class TestNodeAwareDump:
    def _metrics(self, node_aware):
        from repro.apps.synthetic import SyntheticWorkload

        n, rpn = 24, 4
        rank_to_node = [r // rpn for r in range(n)]
        w = SyntheticWorkload(chunks_per_rank=24, chunk_size=128,
                              frac_global=0.25, frac_zero=0.1)
        indices = w.build_indices(n, chunk_size=128)
        cfg = DumpConfig(replication_factor=3, chunk_size=128,
                         strategy=Strategy.COLL_DEDUP, f_threshold=10_000,
                         node_aware=node_aware)
        result = simulate_dump(indices, cfg, rank_to_node=rank_to_node)
        return compute_metrics(indices, result, rank_to_node=rank_to_node)

    def test_improves_node_distinct_replication(self):
        plain = self._metrics(node_aware=False)
        aware = self._metrics(node_aware=True)
        assert aware.node_replication_min >= plain.node_replication_min
        assert aware.node_replication_min >= 2

    def test_threaded_equivalence_with_node_mapping(self):
        """dump_output and the simulator must agree under node_aware too."""
        from repro.core import dump_output
        from repro.core.fingerprint import Fingerprinter
        from repro.core.local_dedup import local_dedup_batched
        from repro.simmpi import World
        from repro.storage import Cluster
        from tests.conftest import make_rank_dataset

        n, rpn = 8, 2
        rank_to_node = [r // rpn for r in range(n)]
        cfg = DumpConfig(replication_factor=3, chunk_size=64,
                         f_threshold=4096, node_aware=True)
        cluster = Cluster(n, rank_to_node=rank_to_node)
        threaded = World(n).run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster)
        )
        fpr = Fingerprinter("sha1")
        indices = [local_dedup_batched(make_rank_dataset(r), fpr, 64) for r in range(n)]
        sim = simulate_dump(indices, cfg, rank_to_node=rank_to_node)
        for rank in range(n):
            assert threaded[rank].partners == sim.reports[rank].partners
            assert threaded[rank].sent_bytes == sim.reports[rank].sent_bytes
            assert threaded[rank].received_bytes == sim.reports[rank].received_bytes
