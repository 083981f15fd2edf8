"""Failure injection and recoverability audits."""

import pytest

from repro.core import DumpConfig, Strategy, dump_output
from repro.simmpi import World
from repro.storage import Cluster, FailureInjector
from repro.storage.manifest import Manifest

from tests.conftest import make_rank_dataset


def dumped_cluster(n, k=3, strategy=Strategy.COLL_DEDUP):
    cfg = DumpConfig(replication_factor=k, chunk_size=64, strategy=strategy,
                     f_threshold=4096)
    cluster = Cluster(n)
    World(n).run(
        lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster)
    )
    return cluster


class TestAudit:
    def test_no_failures_all_recoverable(self):
        cluster = dumped_cluster(5)
        report = FailureInjector(cluster).audit(dump_id=0)
        assert report.all_recoverable
        assert report.recoverable_ranks == list(range(5))

    def test_k_minus_1_failures_recoverable(self):
        cluster = dumped_cluster(6, k=3)
        injector = FailureInjector(cluster)
        injector.fail_nodes([0, 4])
        report = injector.audit(dump_id=0)
        assert report.all_recoverable
        assert report.failed_nodes == [0, 4]

    def test_unprotected_data_detected(self):
        cluster = dumped_cluster(4, k=1)
        injector = FailureInjector(cluster)
        injector.fail_nodes([2])
        report = injector.audit(dump_id=0)
        assert 2 in report.lost_ranks

    def test_lost_manifest_flagged(self):
        cluster = Cluster(2)
        m = Manifest(rank=0, dump_id=0, segment_lengths=[1],
                     fingerprints=[b"\x01" * 20])
        cluster.nodes[0].put_manifest(m)
        cluster.nodes[0].chunks.put(b"\x01" * 20, b"x")
        injector = FailureInjector(cluster)
        injector.fail_nodes([0])
        report = injector.audit(dump_id=0, ranks=[0])
        assert report.lost_ranks == [0]
        assert report.missing_chunks[0] == -1


class TestRandomFailures:
    def test_seeded_choice_is_deterministic(self):
        c1, c2 = dumped_cluster(8), dumped_cluster(8)
        v1 = FailureInjector(c1, seed=42).fail_random_nodes(2)
        v2 = FailureInjector(c2, seed=42).fail_random_nodes(2)
        assert v1 == v2

    def test_victims_are_distinct_and_marked(self):
        cluster = dumped_cluster(8)
        victims = FailureInjector(cluster, seed=1).fail_random_nodes(3)
        assert len(set(victims)) == 3
        for v in victims:
            assert not cluster.nodes[v].alive

    def test_too_many_failures_rejected(self):
        cluster = dumped_cluster(3)
        with pytest.raises(ValueError):
            FailureInjector(cluster).fail_random_nodes(4)

    def test_any_k_minus_1_random_failures_survivable(self):
        """Monte-Carlo over seeds: K=3 must survive any 2 failures."""
        for seed in range(5):
            cluster = dumped_cluster(7, k=3)
            injector = FailureInjector(cluster, seed=seed)
            injector.fail_random_nodes(2)
            assert injector.audit(dump_id=0).all_recoverable


class TestParityAudit:
    def test_audit_consults_parity_stripes(self):
        """A chunk whose only replica died but whose stripe still decodes is
        recoverable, and the audit must say so."""
        n, k = 7, 3
        cfg = DumpConfig(replication_factor=k, chunk_size=64, f_threshold=4096,
                         redundancy="parity", stripe_data=4)
        cluster = Cluster(n)
        World(n).run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg,
                                     cluster)
        )
        injector = FailureInjector(cluster, seed=3)
        injector.fail_random_nodes(k - 1)
        assert injector.audit(dump_id=0).all_recoverable


class TestAuditEdgeCases:
    def test_zero_live_partners(self):
        """Sole survivor: every partner of the remaining node is dead.  The
        audit must still terminate and classify every rank — recoverable
        exactly when K covered the whole cluster."""
        cluster = dumped_cluster(4, k=4)
        injector = FailureInjector(cluster)
        injector.fail_nodes([0, 1, 2])
        report = injector.audit(dump_id=0)
        assert report.failed_nodes == [0, 1, 2]
        assert report.all_recoverable  # K=N: node 3 holds everything
        assert sorted(report.recoverable_ranks + report.lost_ranks) == [
            0, 1, 2, 3,
        ]

    def test_zero_live_partners_under_replicated(self):
        """Same sole-survivor topology with K=2: ranks whose two replica
        holders both died are reported lost with a missing-chunk count."""
        cluster = dumped_cluster(4, k=2, strategy=Strategy.NO_DEDUP)
        injector = FailureInjector(cluster)
        injector.fail_nodes([0, 1, 2])
        report = injector.audit(dump_id=0)
        assert not report.all_recoverable
        assert all(report.missing_chunks[r] != 0 for r in report.lost_ranks)

    def test_crash_during_final_write_phase(self):
        """A node lost at the write phase — after planning and exchange
        committed to a healthy-world layout — drops its own commits, yet
        every rank must stay recoverable: the replicas shipped to partners
        landed before the loss."""
        n, k = 4, 2
        cfg = DumpConfig(replication_factor=k, chunk_size=64,
                         strategy=Strategy.COLL_DEDUP, f_threshold=4096)
        cluster = Cluster(n)
        injector = FailureInjector(cluster)
        hook = injector.mid_dump_hook(2, phase="write", rank=2)
        World(n).run(
            lambda comm: dump_output(
                comm, make_rank_dataset(comm.rank), cfg, cluster,
                phase_hook=hook,
            )
        )
        assert not cluster.nodes[2].alive
        report = injector.audit(dump_id=0)
        assert report.failed_nodes == [2]
        assert report.all_recoverable, report.missing_chunks

    def test_repeated_crash_of_dead_rank_is_noop(self):
        """Failing an already-dead node changes nothing: no error, no
        double-counted loss, bit-identical audit before and after."""
        cluster = dumped_cluster(5, k=3)
        injector = FailureInjector(cluster)
        injector.fail_nodes([1])
        before = injector.audit(dump_id=0)
        injector.fail_nodes([1])  # idempotent
        injector.fail_nodes([1, 1])  # even repeated within one call
        after = injector.audit(dump_id=0)
        assert before == after
        assert after.failed_nodes == [1]


class TestMidDumpHook:
    def test_fires_once_at_named_phase(self):
        cluster = Cluster(3)
        injector = FailureInjector(cluster)
        hook = injector.mid_dump_hook(2, phase="write")
        hook("exchange", 0)
        assert cluster.nodes[2].alive  # wrong phase: nothing happens
        hook("write", 0)
        assert not cluster.nodes[2].alive
        cluster.revive_all()
        hook("write", 1)  # single-shot: a later entry must not re-kill
        assert cluster.nodes[2].alive
