"""Restore: the end-to-end correctness property of every strategy."""

import pytest

from repro.core import Dataset, DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.restore import verify_restorable
from repro.simmpi import World
from repro.storage import Cluster
from repro.storage.local_store import StorageError

from tests.conftest import make_rank_dataset

CS = 64


def dump_world(n, strategy, k=3, dump_id=0, cluster=None):
    cfg = DumpConfig(
        replication_factor=k, chunk_size=CS, strategy=strategy, f_threshold=4096
    )
    if cluster is None:
        cluster = Cluster(n, dedup=(strategy is not Strategy.NO_DEDUP))
    World(n).run(
        lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster, dump_id)
    )
    return cluster


class TestRoundtrip:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_rank_restores_exactly(self, strategy):
        n = 6
        cluster = dump_world(n, strategy)
        for rank in range(n):
            restored, report = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)
            assert report.total_bytes == make_rank_dataset(rank).nbytes

    def test_segment_structure_preserved(self):
        cluster = dump_world(4, Strategy.COLL_DEDUP)
        restored, _ = restore_dataset(cluster, 2)
        assert restored.segment_lengths == make_rank_dataset(2).segment_lengths

    def test_restore_uses_local_node_when_alive(self):
        cluster = dump_world(4, Strategy.LOCAL_DEDUP)
        _restored, report = restore_dataset(cluster, 1)
        assert report.remote_chunks == 0

    def test_coll_dedup_restores_discarded_chunks_remotely(self):
        """A rank that discarded a chunk (others designated) must fetch it
        from a replica holder."""
        n = 6
        cluster = dump_world(n, Strategy.COLL_DEDUP, k=2)
        remote_total = 0
        for rank in range(n):
            restored, report = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)
            remote_total += report.remote_chunks
        assert remote_total > 0  # the shared chunk was discarded somewhere


class TestFailureRecovery:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("k", [2, 3])
    def test_survives_k_minus_1_failures(self, strategy, k):
        n = 7
        cluster = dump_world(n, strategy, k=k)
        for victim in range(k - 1):
            cluster.fail_node(victim)
        for rank in range(n):
            restored, _ = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)

    def test_k1_does_not_survive_failure(self):
        n = 4
        cluster = dump_world(n, Strategy.COLL_DEDUP, k=1)
        cluster.fail_node(2)
        with pytest.raises(StorageError):
            restore_dataset(cluster, 2)

    def test_verify_restorable_reports_reason(self):
        n = 4
        cluster = dump_world(n, Strategy.COLL_DEDUP, k=1)
        assert verify_restorable(cluster, 1) is None
        cluster.fail_node(1)
        reason = verify_restorable(cluster, 1)
        assert reason is not None

    def test_verify_restorable_names_the_first_lost_chunk_in_manifest_order(self):
        cluster = dump_world(4, Strategy.LOCAL_DEDUP, k=3)
        fps = cluster.find_manifest(1, 0).fingerprints
        lost = list(dict.fromkeys(fps[3:]))
        for node in cluster.nodes:
            for fp in lost:
                node.chunks.discard(fp)
        reason = verify_restorable(cluster, 1)
        assert reason == f"chunk {lost[0].hex()[:12]}... has no live holder or stripe"

    def test_restore_report_names_source_nodes(self):
        n = 5
        cluster = dump_world(n, Strategy.LOCAL_DEDUP, k=3)
        cluster.fail_node(0)
        _restored, report = restore_dataset(cluster, 0)
        assert 0 not in report.source_nodes
        assert report.remote_chunks > 0

    def test_revive_restores_access(self):
        n = 4
        cluster = dump_world(n, Strategy.LOCAL_DEDUP, k=2)
        cluster.fail_node(1)
        cluster.revive_all()
        restored, report = restore_dataset(cluster, 1)
        assert restored == make_rank_dataset(1)
        assert report.remote_chunks == 0


class TestMultipleDumps:
    def test_latest_and_older_checkpoints_both_restorable(self):
        n = 4
        cluster = Cluster(n)
        dump_world(n, Strategy.COLL_DEDUP, dump_id=0, cluster=cluster)
        dump_world(n, Strategy.COLL_DEDUP, dump_id=1, cluster=cluster)
        for dump_id in (0, 1):
            restored, _ = restore_dataset(cluster, 3, dump_id=dump_id)
            assert restored == make_rank_dataset(3)

    def test_missing_dump_id_raises(self):
        cluster = dump_world(3, Strategy.COLL_DEDUP, dump_id=0)
        with pytest.raises(StorageError, match="manifest"):
            restore_dataset(cluster, 0, dump_id=5)


class TestRemoteSourceSelection:
    def test_remote_reads_spread_across_holders(self):
        """With the rank's own node dead, every chunk is remote; reads must
        alternate over the surviving holders instead of hammering the
        lowest-numbered one."""
        n = 6
        cluster = dump_world(n, Strategy.NO_DEDUP, k=3)
        cluster.fail_node(1)
        _restored, report = restore_dataset(cluster, 1)
        assert report.local_chunks == 0
        served = report.source_nodes
        assert len(served) >= 2  # reads spread over surviving holders
        assert max(served.values()) < sum(served.values())
