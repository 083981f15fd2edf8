"""The invariant oracles must actually fire when state is corrupted.

Each test breaks one property by hand and asserts the matching checker
reports it — the fuzzer is only as strong as its oracles, so every oracle
gets a positive (fires on corruption) and negative (silent when healthy)
case.
"""

from repro.core import DumpConfig, Strategy, dump_output
from repro.core.runner import run_collective
from repro.dst import invariants as inv
from repro.storage.local_store import Cluster

from tests.conftest import make_rank_dataset

N, K = 4, 3


def dumped_cluster():
    cfg = DumpConfig(replication_factor=K, chunk_size=64,
                     strategy=Strategy.COLL_DEDUP, f_threshold=4096)
    cluster = Cluster(N)
    results, _world = run_collective(
        N,
        lambda comm: dump_output(
            comm, make_rank_dataset(comm.rank), cfg, cluster
        ),
        cluster=cluster,
    )
    return cluster, results


def full_floors():
    return {(0, rank): K for rank in range(N)}


class TestReplication:
    def test_healthy_cluster_is_silent(self):
        cluster, _reports = dumped_cluster()
        assert inv.check_replication(cluster, 0, full_floors()) == []

    def test_dropped_replica_detected(self):
        cluster, _reports = dumped_cluster()
        fp = next(iter(sorted(
            cluster.nodes[0].get_manifest(0, 0).fingerprints
        )))
        holders = cluster.locate(fp)
        victim = cluster.nodes[holders[-1]].chunks
        victim._refcounts.pop(fp)
        payload = victim._chunks.pop(fp)
        victim.physical_bytes -= len(payload)
        out = inv.check_replication(cluster, 0, full_floors())
        assert out and out[0].invariant == "replication"
        assert fp.hex()[:12] in out[0].detail

    def test_vanished_manifest_detected(self):
        cluster, _reports = dumped_cluster()
        for node in cluster.nodes:
            node._manifests.pop((2, 0), None)
        out = inv.check_replication(cluster, 0, full_floors())
        assert any("vanished" in v.detail for v in out)

    def test_zero_floor_tolerates_anything(self):
        cluster, _reports = dumped_cluster()
        cluster.nodes[0].chunks._chunks.clear()
        cluster.nodes[0].chunks._refcounts.clear()
        floors = {key: 0 for key in full_floors()}
        assert inv.check_replication(cluster, 0, floors) == []


class TestRestore:
    """A standalone dump is a depth-1 full of a chain, and restores as one
    (``chain-restore``)."""

    class RankDatasets:
        def build_dataset(self, rank, n):
            return make_rank_dataset(rank)

    def chained_full(self):
        from repro.chain import ChainManager

        cfg = DumpConfig(replication_factor=K, chunk_size=64,
                         strategy=Strategy.COLL_DEDUP, f_threshold=4096)
        manager = ChainManager(Cluster(N), cfg, N)
        manager.chain_dump(self.RankDatasets(), kind="full")
        return manager

    @staticmethod
    def oracle(epoch, rank):
        return make_rank_dataset(rank).to_bytes()

    def test_byte_equality_against_oracle(self):
        manager = self.chained_full()
        floors = {(0, rank): K for rank in range(N)}
        assert inv.check_chain_restore(manager, 0, floors, self.oracle) == []

    def test_corrupted_payload_detected(self):
        manager = self.chained_full()
        store = manager.cluster.nodes[0].chunks
        for fp in list(store._chunks):
            store._chunks[fp] = b"\x00" * len(store._chunks[fp])
        out = inv.check_chain_restore(manager, 0, {(0, 0): K}, self.oracle)
        assert out and out[0].invariant == "chain-restore"


class TestReferentialIntegrity:
    def test_healthy_cluster_has_no_orphans(self):
        cluster, _reports = dumped_cluster()
        assert inv.check_referential_integrity(cluster, 0) == []

    def test_orphan_chunk_detected(self):
        cluster, _reports = dumped_cluster()
        cluster.nodes[1].chunks.put(b"\xee" * 20, b"nobody references me")
        out = inv.check_referential_integrity(cluster, 0)
        assert len(out) == 1
        assert "orphan" in out[0].detail


    def test_pin_naming_an_unstored_chunk_detected(self):
        """The reverse direction holds for pinned dumps only: a live dump
        may have lost chunks to accepted failures, a pin lists what its
        chain still references and nothing else."""
        cluster, _reports = dumped_cluster()
        fp = cluster.nodes[0].get_manifest(0, 0).fingerprints[0]
        for node in cluster.nodes:
            while node.chunks.has(fp):
                node.chunks.discard(fp)
        assert inv.check_referential_integrity(cluster, 0) == []
        out = inv.check_referential_integrity(cluster, 0, pinned_dumps={0})
        assert out and all("pin of rank" in v.detail for v in out)
        assert all(fp.hex()[:12] in v.detail for v in out)
        assert inv.check_referential_integrity(cluster, 0, {7}) == []


class TestChainRefcounts:
    """One recount for every chain sharing an index: a bare manager alone
    (``tests/chain``), every tenant's chain in a service (dst)."""

    def service(self):
        from repro.apps.mutating import MutatingWorkload
        from repro.svc import CheckpointService

        service = CheckpointService(
            3, config=DumpConfig(replication_factor=2, chunk_size=64)
        )
        for i, name in enumerate(("a", "b")):
            service.register_tenant(name)
            workload = MutatingWorkload(
                seed=2, segment_lengths=(256, 90), chunk_size=64,
                dirty_frac=0.3,
            )
            workload.advance(i)
            for kind in ("full", "delta"):
                service.submit(name, workload, kind=kind)
                service.drain()
                workload.advance()
        return service, [service.chain_of(name) for name in ("a", "b")]

    def test_clean_service_recounts_to_its_index(self):
        service, chains = self.service()
        assert inv.check_chain_refcounts(chains, 0) == []
        assert inv.check_cross_tenant_accounting(service, 0) == []
        # one tenant's chain alone is not the whole index
        assert inv.check_chain_refcounts(chains[:1], 0)

    def test_leak_release_and_missed_gc_are_each_caught(self):
        service, chains = self.service()
        fp = sorted(chains[0].resolved_distinct(0))[0]
        service.index.record("a", fp, 64)
        (leak,) = inv.check_chain_refcounts(chains, 0)
        assert leak.invariant == "chain-refcounts"
        assert fp.hex()[:12] in leak.detail
        service.index.release("a", fp)
        service.index.release("a", fp)
        (early,) = inv.check_chain_refcounts(chains, 0)
        assert fp.hex()[:12] in early.detail
        service.index.record("a", fp, 64)
        service.cluster.nodes[0].chunks.put(b"\x01" * 20, b"stray")
        (missed,) = inv.check_chain_refcounts(chains, 0)
        assert "referenced by no live epoch" in missed.detail


class TestAuditConsistency:
    def test_agrees_when_healthy(self):
        cluster, _reports = dumped_cluster()
        assert inv.check_audit_consistency(
            cluster, 0, [0], full_floors()
        ) == []

    def test_positive_floor_but_unrecoverable_detected(self):
        cluster, _reports = dumped_cluster()
        for node in cluster.nodes:
            node._manifests.pop((3, 0), None)
        out = inv.check_audit_consistency(cluster, 0, [0], full_floors())
        assert any(v.invariant == "audit-consistency" for v in out)


class TestWindowLayout:
    def test_real_reports_pass(self):
        _cluster, reports = dumped_cluster()
        assert inv.check_window_layout(0, reports, K, [True] * N) == []

    def test_wire_count_mismatch_detected(self):
        _cluster, reports = dumped_cluster()
        reports[0].sent_per_partner = list(reports[0].sent_per_partner)
        reports[0].sent_per_partner[0] += 1
        out = inv.check_window_layout(0, reports, K, [True] * N)
        assert any("per partner" in v.detail for v in out)

    def test_duplicate_shuffle_position_detected(self):
        _cluster, reports = dumped_cluster()
        reports[1].shuffle_position = reports[0].shuffle_position
        out = inv.check_window_layout(0, reports, K, [True] * N)
        assert out and out[0].invariant == "window-layout"


class TestReportSanity:
    def test_real_reports_pass(self):
        _cluster, reports = dumped_cluster()
        assert inv.check_report_sanity(0, reports) == []

    def test_sent_count_mismatch_detected(self):
        _cluster, reports = dumped_cluster()
        reports[2].sent_chunks += 1
        out = inv.check_report_sanity(0, reports)
        assert any(v.invariant == "report-sanity" for v in out)

    def test_dead_rank_exempt_from_coverage_bound(self):
        _cluster, reports = dumped_cluster()
        reports[1].stored_chunks = 0
        reports[1].discarded_chunks = 0
        reports[1].sent_chunks = 0
        reports[1].sent_per_partner = [0] * (K - 1)
        alive = [True, False, True, True]
        assert inv.check_report_sanity(0, reports, alive=alive) == []
        assert inv.check_report_sanity(0, reports) != []


class TestSLODeterminism:
    class FakeService:
        def __init__(self, engine, timeline, tick):
            self.slo = engine
            self.timeline = timeline
            self.tick = tick

    def driven(self, waits):
        from repro.obs.slo import SLOEngine
        from repro.obs.timeline import TimelineStore

        engine = SLOEngine(
            objectives=("dump.queue_wait_ticks.p95 < 2",),
            windows=((4, 1.0), (2, 1.0)),
            min_samples=2,
        )
        timeline = TimelineStore()
        for tick, wait in enumerate(waits, start=1):
            timeline.record("dump", tick, queue_wait_ticks=float(wait))
            engine.advance(timeline, tick)
        return self.FakeService(engine, timeline, len(waits))

    def test_pure_fold_is_silent(self):
        service = self.driven([0, 5, 5, 5, 5, 0, 0, 0])
        assert service.slo.alerts  # the scenario alerted
        assert inv.check_slo_determinism(service, step=7) == []

    def test_tampered_alert_log_detected(self):
        service = self.driven([0, 5, 5, 5, 5, 0, 0, 0])
        service.slo.alerts.pop()
        (violation,) = inv.check_slo_determinism(service, step=7)
        assert violation.invariant == "slo-determinism"
        assert "diverges" in violation.detail

    def test_disarms_without_an_engine(self):
        service = self.driven([5, 5, 5, 5])
        service.slo = None
        assert inv.check_slo_determinism(service, step=3) == []

    def test_disarms_once_the_ring_dropped_samples(self):
        service = self.driven([5, 5, 5, 5])
        service.slo.alerts.pop()  # would be a violation...
        service.timeline.dropped = 1  # ...but replay is no longer sound
        assert inv.check_slo_determinism(service, step=3) == []
