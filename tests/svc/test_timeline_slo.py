"""The service's telemetry timeline and SLO surface, end to end:
every operation lands a tick-tagged sample, sketches feed the report and
dashboard, and an attached SLO engine fires deterministically."""

import pytest

from repro.core.config import DumpConfig
from repro.obs.schema import validate_run, validate_slo, validate_timeline
from repro.obs.slo import SLOEngine
from repro.svc import (
    CheckpointService,
    TenantWorkload,
    build_report,
    format_service_report,
    format_top,
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


def run_all_ops(service):
    """One of everything: dump, restore, repair, gc (two tenants)."""
    service.register_tenant("alice")
    service.register_tenant("bob")
    for i, tenant in enumerate(("alice", "bob")):
        service.submit(tenant, tenant_workload(i, dump_index=i))
    service.drain()
    service.restore("alice", 0, 0)
    service.cluster.fail_node(1)
    service.repair()
    # Model the node rejoining after repair before submitting more work.
    service.cluster.revive_all()
    service.submit("bob", tenant_workload(1, dump_index=2))
    service.drain()
    service.gc("bob", 0)
    return service


class TestTimelineFeed:
    def test_every_operation_lands_a_sample(self):
        service = run_all_ops(make_service())
        counts = service.timeline.op_counts()
        assert counts["dump"] == 3
        assert counts["restore"] == 1
        assert counts["repair"] == 1
        assert counts["gc"] == 1

    def test_dump_samples_are_tagged_and_tick_stamped(self):
        service = make_service()
        service.register_tenant("alice")
        service.submit("alice", tenant_workload(0))
        service.drain()
        (sample,) = service.timeline.samples(op="dump")
        assert sample.tenant == "alice"
        assert sample.backend == service.backend
        assert sample.tick == service.tick
        for key in ("latency_s", "queue_wait_ticks", "dedup_ratio",
                    "load_skew", "bytes_moved", "new_chunks"):
            assert key in sample.values

    def test_restore_sample_carries_locality(self):
        service = run_all_ops(make_service())
        (sample,) = service.timeline.samples(op="restore")
        assert 0.0 <= sample.values["locality"] <= 1.0
        assert sample.values["bytes"] > 0
        sk = service.timeline.sketch("restore", "locality")
        assert sk is not None and sk.count == 1

    def test_restore_metrics_cover_the_read_path(self):
        service = run_all_ops(make_service())
        metrics = service.trace.metrics
        assert metrics.counters["svc_restores_completed"].value == 1
        assert metrics.counters["svc_restore_bytes"].value > 0
        assert metrics.sketches["svc_restore_latency_sketch"].count == 1
        assert 0.0 <= metrics.gauges["svc_restore_locality"].value <= 1.0

    def test_disabled_timeline_records_nothing(self):
        service = run_all_ops(make_service(timeline_capacity=0))
        assert len(service.timeline) == 0
        assert service.timeline.recorded == 0

    def test_timeline_document_validates(self):
        service = run_all_ops(make_service())
        validate_timeline(service.timeline.as_dict())

    def test_capture_metrics_embeds_timeline_meta(self):
        service = run_all_ops(make_service())
        snapshot = service.capture_metrics()
        validate_run(snapshot)
        tl = snapshot["meta"]["timeline"]
        assert tl["recorded"] == service.timeline.recorded
        assert tl["ops"] == service.timeline.op_counts()


class TestServiceSLO:
    def attach(self, service, threshold=1):
        engine = SLOEngine(
            objectives=(f"dump.queue_wait_ticks.p95 < {threshold}",),
            windows=((4, 1.0), (2, 1.0)),
            min_samples=2,
        )
        service.attach_slo(engine)
        return engine

    def congest(self, service, n=4):
        """Queue several dumps at once so later ones accumulate wait."""
        service.register_tenant("alice")
        for i in range(n):
            service.submit("alice", tenant_workload(0, dump_index=i))
        service.drain()

    def test_congested_queue_fires_the_wait_objective(self):
        service = make_service()
        engine = self.attach(service)
        self.congest(service)
        assert any(a["event"] == "fire" for a in engine.alerts)
        verdict = engine.verdict(service.timeline)
        validate_slo(verdict)
        assert verdict["ok"] is False

    def test_idle_ticks_advance_the_engine(self):
        service = make_service()
        engine = self.attach(service)
        self.congest(service)
        tick = service.tick
        for _ in range(6):
            service.tick_idle()
        assert service.tick == tick + 6
        assert engine.last_tick == service.tick

    def test_replay_equals_live_alerts(self):
        service = make_service()
        engine = self.attach(service)
        self.congest(service)
        for _ in range(4):
            service.tick_idle()
        assert service.timeline.dropped == 0
        assert engine.replay(service.timeline) == engine.alerts

    def test_report_surfaces_the_slo_section(self):
        service = make_service()
        self.attach(service)
        self.congest(service)
        report = build_report(service)
        assert report.slo is not None
        text = format_service_report(report)
        assert "slo:" in text
        assert "fire" in text

    def test_format_top_shows_firing_state(self):
        service = make_service()
        self.attach(service)
        self.congest(service)
        text = format_top(service)
        assert text.startswith("top · ")
        assert "wait p50/p95/p99=" in text
        assert "slo=FIRING:dump.queue_wait_ticks.p95" in text

    def test_format_top_without_slo(self):
        service = make_service()
        self.congest(service)
        assert "slo=" not in format_top(service)
