"""Cluster: lookup, node mapping, failure handling."""

import pytest

from repro.storage.local_store import Cluster, StorageError
from repro.storage.manifest import Manifest


def fp(i):
    return bytes([i]) * 20


class TestLookup:
    def test_locate_live_holders(self):
        cluster = Cluster(4)
        cluster.nodes[1].chunks.put(fp(1), b"x")
        cluster.nodes[3].chunks.put(fp(1), b"x")
        assert cluster.locate(fp(1)) == [1, 3]
        cluster.fail_node(1)
        assert cluster.locate(fp(1)) == [3]

    def test_locate_any_fetches(self):
        cluster = Cluster(3)
        cluster.nodes[2].chunks.put(fp(5), b"payload")
        assert cluster.locate_any(fp(5)) == b"payload"

    def test_locate_any_unrecoverable(self):
        cluster = Cluster(2)
        cluster.nodes[0].chunks.put(fp(5), b"p")
        cluster.fail_node(0)
        with pytest.raises(StorageError, match="unrecoverable"):
            cluster.locate_any(fp(5))

    def test_replica_nodes_includes_dead(self):
        cluster = Cluster(3)
        cluster.nodes[0].chunks.put(fp(1), b"x")
        cluster.fail_node(0)
        assert cluster.replica_nodes(fp(1)) == {0}

    @pytest.mark.parametrize("shard_count", [1, 4])
    def test_stored_sizes_is_the_per_fingerprint_probe(self, shard_count):
        """First holder's size, dead nodes included, 0 where nobody holds it;
        order and duplicates of the request are kept."""
        cluster = Cluster(3, shard_count=shard_count)
        cluster.nodes[0].chunks.put(fp(1), b"a")
        cluster.nodes[2].chunks.put(fp(1), b"a")
        cluster.nodes[1].chunks.put(fp(2), b"bbbb")
        cluster.nodes[2].chunks.put(fp(3), b"cc")
        cluster.fail_node(2)

        def probe(f):
            for node in cluster.nodes:
                if node.chunks.has(f):
                    return node.chunks.nbytes_of(f)
            return 0

        fps = [fp(3), fp(9), fp(1), fp(2), fp(3)]
        assert cluster.stored_sizes(fps) == [probe(f) for f in fps] == [2, 0, 1, 4, 2]
        assert cluster.stored_sizes([]) == []


class TestManifests:
    def test_find_prefers_owner(self):
        cluster = Cluster(3)
        m = Manifest(rank=1, dump_id=0, segment_lengths=[4], fingerprints=[fp(1)])
        cluster.nodes[1].put_manifest(m)
        cluster.nodes[2].put_manifest(m)
        found = cluster.find_manifest(1, 0)
        assert found.rank == 1

    def test_find_falls_back_to_replica(self):
        cluster = Cluster(3)
        m = Manifest(rank=1, dump_id=0)
        cluster.nodes[2].put_manifest(m)
        cluster.fail_node(1)
        assert cluster.find_manifest(1, 0).rank == 1

    def test_find_missing_raises(self):
        with pytest.raises(StorageError):
            Cluster(2).find_manifest(0, 0)


class TestRankToNode:
    def test_multiple_ranks_per_node(self):
        cluster = Cluster(6, rank_to_node=[0, 0, 1, 1, 2, 2])
        assert cluster.node_of(3).node_id == 1
        assert len(cluster.nodes) == 3

    def test_storage_for_failed_node_raises(self):
        cluster = Cluster(4, rank_to_node=[0, 0, 1, 1])
        cluster.fail_node(0)
        with pytest.raises(StorageError, match="failed"):
            cluster.storage_for(1)
        cluster.storage_for(2)  # other node unaffected

    def test_mapping_length_validated(self):
        with pytest.raises(ValueError):
            Cluster(3, rank_to_node=[0, 1])

    def test_totals_aggregate_nodes(self):
        cluster = Cluster(2)
        cluster.nodes[0].chunks.put(fp(1), b"aa")
        cluster.nodes[1].chunks.put(fp(1), b"aa")
        cluster.nodes[1].chunks.put(fp(1), b"aa")
        assert cluster.total_physical_bytes == 4
        assert cluster.total_logical_bytes == 6
