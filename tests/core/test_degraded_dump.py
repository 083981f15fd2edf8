"""Degraded dumps: the collective completes despite dead nodes.

``DumpConfig.degraded`` turns node failures from fatal into accounted-for:
ranks whose node died keep computing and sending (their data survives on
live partners), dead nodes store nothing, and the dump reports what was
dropped.  A follow-up repair tops the short replicas back up to K.
"""

import pytest

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.repair import repair_cluster, scan_cluster
from repro.simmpi import World
from repro.simmpi.errors import WorldError
from repro.storage import Cluster, FailureInjector

from tests.conftest import make_rank_dataset

CS = 64


def degraded_dump(n, k=3, strategy=Strategy.COLL_DEDUP, dead=(), phase_hook=None):
    cfg = DumpConfig(replication_factor=k, chunk_size=CS, strategy=strategy,
                     f_threshold=4096, degraded=True)
    cluster = Cluster(n)
    for node_id in dead:
        cluster.fail_node(node_id)
    reports = World(n).run(
        lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg,
                                 cluster, phase_hook=phase_hook)
    )
    return cluster, reports


class TestConfig:
    def test_degraded_parity_rejected(self):
        with pytest.raises(ValueError):
            DumpConfig(degraded=True, redundancy="parity")

    def test_non_degraded_dump_raises_on_dead_node(self):
        cluster = Cluster(4)
        cluster.fail_node(1)
        cfg = DumpConfig(replication_factor=2, chunk_size=CS, f_threshold=4096)
        with pytest.raises(WorldError):
            World(4).run(
                lambda comm: dump_output(
                    comm, make_rank_dataset(comm.rank), cfg, cluster
                )
            )


class TestHealthyCluster:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_degraded_flag_is_inert_when_all_alive(self, strategy):
        n = 5
        cluster, reports = degraded_dump(n, strategy=strategy)
        assert all(not r.degraded for r in reports)
        assert all(r.dropped_chunks == 0 for r in reports)
        for rank in range(n):
            restored, _ = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)


class TestDeadAtDumpTime:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_dump_completes_and_every_rank_restores(self, strategy):
        n, dead = 7, (2, 5)
        cluster, reports = degraded_dump(n, strategy=strategy, dead=dead)
        assert all(r.degraded for r in reports)
        # Dead-node ranks stored nothing locally...
        for node_id in dead:
            assert cluster.nodes[node_id].chunks.physical_bytes == 0
        # ...but their data landed on live partners: every rank restores.
        for rank in range(n):
            restored, _ = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)
        assert FailureInjector(cluster).audit(0).all_recoverable

    def test_dead_rank_data_short_one_replica_until_repaired(self):
        n, k = 7, 3
        cluster, _reports = degraded_dump(n, k=k, dead=(2,))
        scan = scan_cluster(cluster, k)
        # The dead rank has no local copy, so some chunks sit below K...
        assert not scan.clean
        assert all(d.deficit >= 1 for d in scan.chunks.values())
        # ...and repair tops them back up.
        report = repair_cluster(cluster, k)
        assert report.complete
        assert scan_cluster(cluster, k).clean

    def test_no_dead_node_receives_or_stores(self):
        n, dead = 6, (0, 3)
        cluster, reports = degraded_dump(n, dead=dead)
        for node_id in dead:
            node = cluster.nodes[node_id]
            assert node.chunks.physical_bytes == 0
            assert not node.manifest_keys()
        for rank, report in enumerate(reports):
            if rank not in dead:
                assert report.dropped_chunks == 0


class TestMidDumpDeath:
    def test_victim_drops_its_commits_and_dump_survives(self):
        n, k, victim = 7, 3, 3
        cfg = DumpConfig(replication_factor=k, chunk_size=CS, f_threshold=4096,
                         degraded=True)
        cluster = Cluster(n)
        injector = FailureInjector(cluster)
        hook = injector.mid_dump_hook(victim, phase="exchange")
        reports = World(n).run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg,
                                     cluster, phase_hook=hook)
        )
        assert reports[victim].dropped_chunks > 0
        assert reports[victim].dropped_bytes > 0
        assert cluster.nodes[victim].chunks.physical_bytes == 0
        for rank, report in enumerate(reports):
            if rank != victim:
                assert report.dropped_chunks == 0
        # The victim died *after* the liveness snapshot, so its own data
        # still reached K live partners: everything restores.
        assert FailureInjector(cluster).audit(0).all_recoverable
        repair_cluster(cluster, k)
        assert scan_cluster(cluster, k).clean
