"""CheckpointService end to end: cross-tenant dedup, isolation, GC,
quotas, scheduling and the obs metrics surface."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import DumpConfig
from repro.svc import (
    CheckpointService,
    QueueFullError,
    QuotaExceededError,
    TenantQuota,
    TenantWorkload,
    UnknownDumpError,
    UnknownTenantError,
    TenantExistsError,
    build_report,
    format_service_report,
)

N = 4
CS = 64


def make_service(**kwargs):
    kwargs.setdefault("config", DumpConfig(replication_factor=2, chunk_size=CS))
    kwargs.setdefault("shard_count", 8)
    return CheckpointService(N, **kwargs)


def tenant_workload(i, overlap=0.5, dump_index=0):
    return TenantWorkload(
        i,
        overlap=overlap,
        chunks_per_rank=16,
        chunk_size=CS,
        dump_index=dump_index,
    )


def dump(service, tenant, workload):
    ticket = service.submit(tenant, workload)
    service.drain()
    return service.outcome(ticket)


class TestCrossTenantDedup:
    def test_shared_content_is_stored_once(self):
        """Two tenants dumping 50%-shared content: the shared chunks hit
        the first tenant's copies, physical stays below the sum of
        logical, and the savings show up in the service ratio."""
        service = make_service()
        service.register_tenant("alice")
        service.register_tenant("bob")
        first = dump(service, "alice", tenant_workload(0))
        second = dump(service, "bob", tenant_workload(1))
        assert first.cross_tenant_hits == 0
        assert second.cross_tenant_hits > 0
        assert second.new_chunks < first.new_chunks
        stats = service.cluster.store_stats()
        assert stats["physical_bytes"] < stats["logical_bytes"]
        assert service.index.cross_tenant_shared_bytes > 0
        ratio = service.cross_tenant_dedup_ratio()
        assert 0.0 < ratio < 1.0
        # overlap=0.5 means bob's footprint is ~half shared.
        assert service.index.shared_bytes("bob") >= (
            0.4 * service.index.referenced_bytes("bob")
        )

    def test_restores_are_correct_for_both_tenants(self):
        service = make_service()
        service.register_tenant("alice")
        service.register_tenant("bob")
        workloads = {"alice": tenant_workload(0), "bob": tenant_workload(1)}
        for name, workload in workloads.items():
            dump(service, name, workload)
        for name, workload in workloads.items():
            for rank in range(N):
                dataset, _report = service.restore(name, rank, 0)
                expected = workload.build_dataset(rank, N).to_bytes()
                assert dataset.to_bytes() == expected

    def test_identical_tenants_fully_dedup(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", tenant_workload(0, overlap=1.0))
        outcome = dump(service, "b", tenant_workload(1, overlap=1.0))
        assert outcome.new_chunks == 0
        assert outcome.cross_tenant_hits > 0


class TestIsolation:
    def test_namespaces_are_per_tenant(self):
        service = make_service()
        service.register_tenant("alice")
        service.register_tenant("bob")
        dump(service, "alice", tenant_workload(0))
        # bob has no dump 0 even though alice does.
        with pytest.raises(UnknownDumpError):
            service.restore("bob", 0, 0)
        assert service.isolation_audit() == []

    def test_unknown_tenant_and_duplicate_registration(self):
        service = make_service()
        service.register_tenant("alice")
        with pytest.raises(TenantExistsError):
            service.register_tenant("alice")
        with pytest.raises(UnknownTenantError):
            service.submit("nobody", tenant_workload(0))
        with pytest.raises(UnknownTenantError):
            service.restore("nobody", 0, 0)


class TestGarbageCollection:
    def test_gc_never_breaks_the_other_tenants_restore(self):
        service = make_service()
        service.register_tenant("alice")
        service.register_tenant("bob")
        dump(service, "alice", tenant_workload(0))
        dump(service, "bob", tenant_workload(1))
        outcome = service.gc("alice", 0)
        assert outcome.retained_cross_tenant > 0
        assert outcome.chunks_dropped > 0  # alice's unique chunks go
        with pytest.raises(UnknownDumpError):
            service.restore("alice", 0, 0)
        workload = tenant_workload(1)
        for rank in range(N):
            dataset, _report = service.restore("bob", rank, 0)
            assert dataset.to_bytes() == workload.build_dataset(
                rank, N
            ).to_bytes()

    def test_last_reference_physically_reclaims(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", tenant_workload(0, overlap=1.0))
        dump(service, "b", tenant_workload(1, overlap=1.0))
        first = service.gc("a", 0)
        assert first.chunks_dropped == 0  # b still references everything
        second = service.gc("b", 0)
        assert second.chunks_dropped > 0
        assert second.bytes_reclaimed > 0
        assert len(service.index) == 0
        assert all(
            node.chunks.chunk_count == 0 for node in service.cluster.nodes
        )

    def test_index_totals_follow_dumps_and_gc(self):
        # The ratio every request ends with reads running totals; they must
        # equal a walk over the index after each dump and each gc.
        from tests.svc.test_index import assert_totals_match_recount

        service = make_service()
        tenants = ("a", "b", "c")
        for name in tenants:
            service.register_tenant(name)
        for dump_index in range(2):
            for i, name in enumerate(tenants):
                dump(service, name, tenant_workload(i, dump_index=dump_index))
                assert_totals_match_recount(service.index, tenants)
        assert service.cross_tenant_dedup_ratio() > 0
        for name in tenants:
            for dump_id in range(2):
                service.gc(name, dump_id)
                assert_totals_match_recount(service.index, tenants)
        assert service.index.unique_bytes == 0
        assert service.cross_tenant_dedup_ratio() == 0.0

    def test_gc_of_unknown_dump_raises(self):
        service = make_service()
        service.register_tenant("a")
        with pytest.raises(UnknownDumpError):
            service.gc("a", 0)


class TestQuotasAndScheduling:
    def test_quota_rejection_is_typed_and_counted(self):
        service = make_service()
        service.register_tenant(
            "small", quota=TenantQuota(max_logical_bytes=1)
        )
        with pytest.raises(QuotaExceededError):
            service.submit("small", tenant_workload(0))
        report = build_report(service)
        assert report.tenants[0].rejected == 1
        assert report.rejections == {"QuotaExceededError": 1}

    def test_queue_depth_backpressure(self):
        service = make_service(queue_depth=2)
        service.register_tenant("a")
        service.submit("a", tenant_workload(0, dump_index=0))
        service.submit("a", tenant_workload(0, dump_index=1))
        with pytest.raises(QueueFullError):
            service.submit("a", tenant_workload(0, dump_index=2))
        service.drain()

    def test_drain_alternates_tenants_fairly(self):
        service = make_service(max_inflight=1)
        for name in ("chatty", "quiet"):
            service.register_tenant(name)
        for dump_index in range(3):
            service.submit("chatty", tenant_workload(0, dump_index=dump_index))
        service.submit("quiet", tenant_workload(1))
        outcomes = service.drain()
        assert [o.tenant for o in outcomes] == [
            "chatty", "quiet", "chatty", "chatty",
        ]
        # The last chatty dump waited behind three earlier admissions.
        assert outcomes[-1].wait_ticks > outcomes[0].wait_ticks

    def test_dump_rate_window(self):
        service = make_service()
        service.register_tenant(
            "bursty",
            quota=TenantQuota(max_dumps_per_window=1, window_ticks=2),
        )
        dump(service, "bursty", tenant_workload(0, dump_index=0))
        with pytest.raises(QuotaExceededError):
            service.submit("bursty", tenant_workload(0, dump_index=1))
        # Ticks advance as other tenants' work drains; the window frees up.
        service.register_tenant("other")
        for dump_index in range(3):
            dump(service, "other", tenant_workload(1, dump_index=dump_index))
        dump(service, "bursty", tenant_workload(0, dump_index=1))

    def test_a_raised_dump_costs_its_tenant_nothing(self):
        """No tenant dump id burnt, nothing charged, recorded or left
        pending; only the global id is spent (manifests may sit under it)."""
        service = make_service(max_inflight=2)
        for name in ("c", "a", "b"):
            service.register_tenant(name)
        dump(service, "c", tenant_workload(2))
        usage = service._state("a").usage

        def books():
            return (
                usage.logical_bytes, usage.chunk_records, usage.live_dumps,
                usage.total_dumps, len(service.index),
                service.index.unique_bytes, dict(service._dump_owner),
            )

        before = books()

        def hook(phase, rank):
            if rank == 1:
                raise RuntimeError("boom")

        failed = service.submit("a", tenant_workload(0), phase_hook=hook)
        queued = service.submit("b", tenant_workload(1, dump_index=1))
        with pytest.raises(Exception, match="boom"):
            service.drain()
        assert list(service._pending) == [queued]
        assert service.queue.depth == 1  # b's request was not lost with it
        with pytest.raises(UnknownDumpError):
            service.outcome(failed)
        assert service._state("a").charges == {}
        assert service.chain_of("a").live_epochs() == []
        assert books() == before
        service.drain()
        assert service._pending == {}

        good = dump(service, "a", tenant_workload(0))
        assert good.tenant_dump_id == 0
        assert good.global_dump_id == 3  # 1 went with the failed request
        assert service.outcome(queued).global_dump_id == 2
        dataset, _report = service.restore("a", 0, 0)
        assert dataset.to_bytes() == tenant_workload(0).build_dataset(0, N).to_bytes()
        assert service.isolation_audit() == []


class TestCurrentSettingsReachEveryDump:
    """``config`` and ``timeout`` are read when a dump runs, not when its
    tenant registered."""

    def test_config_assigned_after_registration_takes_effect(self, monkeypatch):
        import repro.core.dump

        seen = []
        real = repro.core.dump.dump_output

        def spy(comm, dataset, config, cluster, **kwargs):
            if comm.rank == 0:
                seen.append((config.trace_level, config.replication_factor))
            return real(comm, dataset, config, cluster, **kwargs)

        monkeypatch.setattr(repro.core.dump, "dump_output", spy)
        from repro.apps.mutating import MutatingWorkload

        service = make_service()
        service.register_tenant("a")
        workload = MutatingWorkload(seed=3, chunk_size=CS)
        dump(service, "a", workload)
        service.config = service.config.with_(trace_level="span")
        workload.advance()
        service.submit("a", workload, kind="delta")
        (delta,) = service.drain()
        service.config = service.config.with_(replication_factor=3)
        outcome = dump(service, "a", workload)
        assert delta.kind == "delta"
        assert seen == [(None, 2), ("span", 2), ("span", 3)]
        assert {r.k for r in outcome.reports} == {3}

    def test_a_blocked_delta_raises_within_the_service_timeout(self):
        import threading
        import time

        from repro.apps.mutating import MutatingWorkload
        from repro.simmpi.errors import SimMPIError

        service = make_service(timeout=0.5)
        service.register_tenant("a")
        workload = MutatingWorkload(seed=3, chunk_size=CS)
        dump(service, "a", workload)
        release = threading.Event()

        def hook(phase, rank):
            if rank == 1:
                release.wait(30)

        workload.advance()
        service.submit("a", workload, phase_hook=hook, kind="delta")
        start = time.monotonic()
        try:
            with pytest.raises(SimMPIError):
                service.drain()
            assert time.monotonic() - start < 10
        finally:
            release.set()
        assert service.chain_of("a").live_epochs() == [0]


class TestObservability:
    def test_metrics_snapshot_carries_the_service_gauges(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", tenant_workload(0))
        dump(service, "b", tenant_workload(1))
        run = service.capture_metrics(meta={"test": True})
        assert run["schema"] == "repro.obs/run/v1"
        (entry,) = run["ranks"]
        counters = entry["metrics"]["counters"]
        gauges = entry["metrics"]["gauges"]
        assert counters["svc_dumps_submitted"] == 2
        assert counters["svc_dumps_completed"] == 2
        for name in (
            "svc_queue_depth",
            "svc_cross_tenant_dedup_ratio",
            "svc_store_chunks",
            "svc_store_dedup_ratio",
            "svc_store_shard_skew",
        ):
            assert name in gauges
        assert "svc_admission_latency_seconds" in entry["metrics"][
            "histograms"
        ]
        assert gauges["svc_cross_tenant_dedup_ratio"] > 0

    def test_report_round_trip(self):
        service = make_service(attribution="split")
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", tenant_workload(0))
        dump(service, "b", tenant_workload(1))
        report = build_report(service)
        assert report.attribution == "split"
        assert len(report.tenants) == 2
        summed = sum(t.charged_bytes for t in report.tenants)
        assert summed == pytest.approx(report.unique_bytes)
        assert report.store_stats["shard_count"] == 8
        text = format_service_report(report)
        assert "cross-tenant:" in text
        assert "store:" in text
        assert "queue:" in text
        for t in report.tenants:
            assert t.tenant in text


class TestBackendsAndRepair:
    def test_process_backend_end_to_end(self):
        service = make_service(backend="process", timeout=60)
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", tenant_workload(0))
        outcome = dump(service, "b", tenant_workload(1))
        assert outcome.cross_tenant_hits > 0
        workload = tenant_workload(1)
        dataset, _report = service.restore("b", 0, 0)
        assert dataset.to_bytes() == workload.build_dataset(0, N).to_bytes()

    def test_repair_heals_every_tenants_dumps(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", tenant_workload(0))
        dump(service, "b", tenant_workload(1))
        service.cluster.fail_node(1)
        report = service.repair()
        assert report.chunks_moved >= 0
        for name, idx in (("a", 0), ("b", 1)):
            workload = tenant_workload(idx)
            for rank in range(N):
                dataset, _restore_report = service.restore(name, rank, 0)
                assert dataset.to_bytes() == workload.build_dataset(
                    rank, N
                ).to_bytes()

    def test_a_request_while_a_node_is_dead_commits_and_repairs(self):
        """A default-config request submitted while node 1 is down commits
        an epoch planned around it: every rank restores byte-equal, and
        ``repair()`` brings every chunk back to K."""
        from repro.repair import scan_cluster

        service = make_service()
        service.register_tenant("a")
        service.cluster.fail_node(1)
        outcome = dump(service, "a", tenant_workload(0))
        assert outcome.tenant_dump_id == 0
        assert all(r.degraded and not r.dropped_chunks for r in outcome.reports)
        assert service.cluster.nodes[1].chunks.chunk_count == 0
        workload = tenant_workload(0)
        for rank in range(N):
            dataset, _report = service.restore("a", rank, 0)
            assert dataset.to_bytes() == workload.build_dataset(rank, N).to_bytes()
        k = service.config.replication_factor
        assert not scan_cluster(service.cluster, k).clean
        assert service.repair().complete
        assert scan_cluster(service.cluster, k).clean

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            make_service(attribution="auction")
        with pytest.raises(ValueError):
            make_service(max_inflight=0)

    def test_backend_defaults_to_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
        service = make_service()
        assert service.backend == "process"
        assert build_report(service).backend == "process"
        assert service.capture_metrics()["meta"]["backend"] == "process"
        assert make_service(backend="thread").backend == "thread"


class TestRequestSizing:
    """A request is sized from the workload's declared geometry."""

    @given(
        overlap=st.floats(0.0, 1.0),
        chunks=st.integers(0, 40),
        chunk_size=st.integers(1, 300),
        n_ranks=st.integers(1, 6),
        data=st.data(),
    )
    def test_tenant_bytes_are_the_declared_geometry(
        self, overlap, chunks, chunk_size, n_ranks, data
    ):
        rank = data.draw(st.integers(0, n_ranks - 1), label="rank")
        workload = TenantWorkload(
            data.draw(st.integers(0, 3), label="tenant"), overlap=overlap,
            chunks_per_rank=chunks, chunk_size=chunk_size,
            seed=data.draw(st.integers(0, 3), label="seed"),
        )
        assert workload.per_rank_bytes(n_ranks, rank) == workload.build_dataset(
            rank, n_ranks
        ).nbytes

    def test_submit_builds_no_rank_data(self, monkeypatch):
        from repro.apps.synthetic import SyntheticWorkload

        calls = []
        for cls in (TenantWorkload, SyntheticWorkload):
            real = cls.rank_segments

            def spy(self, rank, n_ranks, real=real):
                calls.append(rank)
                return real(self, rank, n_ranks)

            monkeypatch.setattr(cls, "rank_segments", spy)
        service = make_service()
        service.register_tenant("a")
        service.submit("a", tenant_workload(0))
        service.submit("a", SyntheticWorkload(chunks_per_rank=8, chunk_size=CS))
        assert calls == []
        service.drain()  # the dumps themselves build the data
        assert calls


class TestDegradedDumpThatLosesARank:
    """Node 1 is dead when the dump begins, so rank 1's chunks and manifest
    have one replica, on its partner (node 2 without the shuffle); node 2
    dies in the write phase.  Nothing of rank 1 is stored anywhere, and the
    ledger of a fuzzer accepts that: the request must still commit."""

    @pytest.mark.parametrize("kind", ["full", "delta"])
    def test_the_request_commits_and_the_loss_is_typed(self, kind):
        from repro.apps.mutating import MutatingWorkload
        from repro.chain import ChainBrokenError
        from repro.dst.invariants import (
            check_chain_refcounts,
            check_cross_tenant_accounting,
        )
        from repro.storage.failures import FailureInjector

        service = make_service(config=DumpConfig(
            replication_factor=2, chunk_size=CS, shuffle=False,
        ))
        service.register_tenant("a")
        workload = MutatingWorkload(
            seed=5, chunk_size=CS, segment_lengths=(CS * 12, CS + 20),
            dirty_frac=0.3, shared_base=False,
        )
        if kind == "delta":
            dump(service, "a", workload.at_epoch(0))
            workload.advance()
        service.cluster.fail_node(1)
        hook = FailureInjector(service.cluster).mid_dump_hook(
            2, "write", rank=2
        )
        ticket = service.submit("a", workload, phase_hook=hook, kind=kind)
        (outcome,) = service.step()
        assert (outcome.ticket, outcome.kind) == (ticket, kind)
        epoch = outcome.tenant_dump_id
        assert not any(
            node.has_manifest(1, outcome.global_dump_id)
            for node in service.cluster.nodes
        )
        chain = service.chain_of("a")
        assert check_chain_refcounts([chain], 0) == []
        assert check_cross_tenant_accounting(service, 0) == []
        assert any(not entry.size for _fp, entry in service.index.items())
        for rank in (0, 3):
            dataset, _report = service.restore("a", rank, epoch)
            assert dataset.to_bytes() == workload.build_dataset(
                rank, N
            ).to_bytes()
        with pytest.raises(ChainBrokenError, match="rank 1"):
            service.restore("a", 1, epoch)
        # GC of it frees what was stored and bills nothing negative.
        service.gc("a", epoch)
        assert check_cross_tenant_accounting(service, 0) == []
        assert service.index.unique_bytes == sum(
            entry.size for _fp, entry in service.index.items()
        )
