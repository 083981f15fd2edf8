"""Degraded dumps: the collective completes despite dead nodes.

Every dump plans around the dead nodes of its liveness snapshot, so node
failures are accounted for, never fatal: ranks whose node died keep
computing and sending (their data survives on live partners), dead nodes
store nothing, and the dump reports what was dropped.  A follow-up repair
tops the short replicas back up to K.  Parity redundancy tolerates no dead
node and raises a typed error on every rank.
"""

import pytest

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.runner import run_collective
from repro.repair import repair_cluster, scan_cluster
from repro.simmpi import World
from repro.simmpi.errors import WorldError
from repro.storage import Cluster, FailureInjector, StorageError

from tests.conftest import make_rank_dataset, own_shm_segments

CS = 64


def degraded_dump(n, k=3, strategy=Strategy.COLL_DEDUP, dead=(), phase_hook=None):
    cfg = DumpConfig(replication_factor=k, chunk_size=CS, strategy=strategy,
                     f_threshold=4096)
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
        """A parity dump with a dead node fails loud, the same on every rank
        of either backend, and names the dead nodes."""
        n = 5
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096,
                         redundancy="parity", stripe_data=2)
        before = own_shm_segments()
        for backend in ("thread", "process"):
            cluster = Cluster(n)
            cluster.fail_node(1)
            cluster.fail_node(3)
            with pytest.raises(WorldError) as info:
                run_collective(
                    n,
                    lambda comm: dump_output(
                        comm, make_rank_dataset(comm.rank), cfg, cluster
                    ),
                    cluster=cluster, backend=backend, timeout=60,
                )
            failures = info.value.failures
            assert sorted(failures) == list(range(n)), backend
            for exc in failures.values():
                assert type(exc) is StorageError
                assert "parity" in str(exc) and "dead nodes: [1, 3]" in str(exc)
            assert all(node.chunks.chunk_count == 0 for node in cluster.nodes)
        assert own_shm_segments() <= before


class TestHealthyCluster:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_degraded_flag_is_inert_when_all_alive(self, strategy):
        """With every node alive nothing is degraded or dropped."""
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
        cfg = DumpConfig(replication_factor=k, chunk_size=CS, f_threshold=4096)
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

    def test_dead_node_and_death_in_write_under_the_default_config(self):
        """One node dead at the snapshot and another dying in ``write``: the
        default config plans around the first and accounts for the second."""
        n, dead, victim = 6, 1, 4
        cluster = Cluster(n)
        cluster.fail_node(dead)
        hook = FailureInjector(cluster).mid_dump_hook(victim, phase="write")
        cfg = DumpConfig(chunk_size=CS)
        reports = World(n).run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg,
                                     cluster, phase_hook=hook)
        )
        assert all(r.degraded for r in reports)
        assert reports[victim].dropped_chunks > 0
        assert reports[victim].dropped_bytes > 0
        assert [r.rank for r in reports if r.dropped_chunks] == [victim]
        assert cluster.nodes[victim].chunks.chunk_count == 0
        assert not cluster.nodes[victim].manifest_keys()
