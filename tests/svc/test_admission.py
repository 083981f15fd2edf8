"""Admission queue: per-tenant FIFO order, round-robin fairness, bounds."""

import pytest

from repro.svc import AdmissionQueue, DumpRequest, QueueFullError


def req(ticket, tenant):
    return DumpRequest(ticket=ticket, tenant=tenant, workload=None)


class TestFairness:
    def test_fifo_within_one_tenant(self):
        q = AdmissionQueue()
        for i in range(4):
            q.push(req(i, "a"))
        assert [q.pop().ticket for _ in range(4)] == [0, 1, 2, 3]
        assert q.pop() is None

    def test_round_robin_across_tenants(self):
        """One chatty tenant cannot starve the others: service order
        alternates tenants no matter how lopsided the submit order was."""
        q = AdmissionQueue()
        ticket = 0
        for _ in range(4):
            q.push(req(ticket, "chatty"))
            ticket += 1
        q.push(req(ticket, "quiet"))
        order = []
        while True:
            r = q.pop()
            if r is None:
                break
            order.append(r.tenant)
        assert order == ["chatty", "quiet", "chatty", "chatty", "chatty"]

    def test_cursor_resumes_after_last_served(self):
        q = AdmissionQueue()
        q.push(req(0, "a"))
        q.push(req(1, "b"))
        q.push(req(2, "c"))
        q.push(req(3, "a"))
        assert [q.pop().tenant for _ in range(4)] == ["a", "b", "c", "a"]

    def test_pop_skips_drained_tenants(self):
        q = AdmissionQueue()
        q.push(req(0, "a"))
        q.push(req(1, "b"))
        assert q.pop().tenant == "a"
        assert q.pop().tenant == "b"
        q.push(req(2, "b"))
        assert q.pop().tenant == "b"


class TestBounds:
    def test_push_past_depth_raises(self):
        q = AdmissionQueue(max_depth=2)
        q.push(req(0, "a"))
        q.push(req(1, "b"))
        with pytest.raises(QueueFullError):
            q.push(req(2, "c"))
        # Popping frees the slot again.
        q.pop()
        q.push(req(3, "c"))

    def test_depth_accounting(self):
        q = AdmissionQueue()
        assert q.depth == 0
        q.push(req(0, "a"))
        q.push(req(1, "a"))
        q.push(req(2, "b"))
        assert q.depth == 3
        assert q.depth_of("a") == 2
        assert q.depth_of("b") == 1
        assert q.depth_of("nobody") == 0
        assert q.max_depth_seen == 3
        q.pop()
        assert q.depth == 2
        assert q.max_depth_seen == 3
        assert q.pushed == 3
        assert q.popped == 1

    def test_max_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)


class TestDeltaRequestsAreAdmitted:
    """A delta is a request like any other: queued, bounded, rate-limited
    and scheduled by the same path as a full."""

    @staticmethod
    def service(**kwargs):
        from repro.core.config import DumpConfig
        from repro.svc import CheckpointService

        return CheckpointService(
            3, config=DumpConfig(replication_factor=2, chunk_size=64),
            max_inflight=1, **kwargs,
        )

    @staticmethod
    def workload(seed):
        from repro.apps.mutating import MutatingWorkload

        return MutatingWorkload(seed=seed, segment_lengths=(256, 85), chunk_size=64)

    def test_a_delta_waits_its_turn_behind_another_tenant(self):
        service = self.service()
        service.register_tenant("a")
        service.register_tenant("b")
        ours = self.workload(1)
        for tenant, workload in (("b", self.workload(2)), ("a", ours)):
            service.submit(tenant, workload)
            service.drain()
        ours.advance()
        theirs = service.submit("b", self.workload(2))
        delta = service.submit("a", ours, kind="delta")
        assert service.queue.depth == 2  # nothing ran at submit
        assert service.chain_of("a").live_epochs() == [0]
        (first,) = service.step()
        (second,) = service.step()
        assert (first.ticket, second.ticket) == (theirs, delta)
        assert first.global_dump_id < second.global_dump_id
        assert (second.kind, second.tenant_dump_id) == ("delta", 1)
        assert (first.wait_ticks, second.wait_ticks) == (1, 2)
        waits = service.trace.metrics.sketch("svc_queue_wait_sketch")
        assert (waits.count, waits.sum, waits.max) == (4, 5, 2)
        queue_waits = service.timeline.sketch("dump", "queue_wait_ticks")
        assert queue_waits.count == 4

    def test_a_delta_counts_toward_the_queue_bound(self):
        service = self.service(queue_depth=1)
        service.register_tenant("a")
        service.register_tenant("b")
        service.submit("a", self.workload(1), kind="delta")
        with pytest.raises(QueueFullError):
            service.submit("b", self.workload(2))
        with pytest.raises(QueueFullError):
            service.submit("a", self.workload(1), kind="delta")
        assert service.rejections == {"QueueFullError": 2}

    def test_a_delta_counts_toward_the_rate_window_at_its_submit_tick(self):
        from repro.svc import DumpRateExceededError, TenantQuota

        service = self.service()
        service.register_tenant(
            "a", TenantQuota(max_dumps_per_window=1, window_ticks=2)
        )
        service.register_tenant("b")
        for _ in range(3):  # move the clock: ticks 1..3
            service.submit("b", self.workload(2))
            service.drain()
        workload = self.workload(1)
        service.submit("a", workload, kind="delta")
        usage = service._state("a").usage
        assert usage.submit_ticks == [3]
        with pytest.raises(DumpRateExceededError):  # before the first even ran
            service.submit("a", workload, kind="delta")
        service.drain()  # executes at tick 4; the window still counts tick 3
        assert usage.submit_ticks == [3]
        with pytest.raises(DumpRateExceededError):
            service.submit("a", workload, kind="delta")
        service.tick_idle()  # tick 5: 3 is no longer > 5 - 2
        service.submit("a", workload, kind="delta")

    def test_an_unknown_kind_is_rejected_at_submit(self):
        service = self.service()
        service.register_tenant("a")
        with pytest.raises(ValueError, match="kind"):
            service.submit("a", self.workload(1), kind="incremental")
        assert service.queue.depth == 0
