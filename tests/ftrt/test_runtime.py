"""Application checkpoint-restart through the checkpoint service: a
:class:`MemoryRegistry` tenant checkpointed as delta epochs, restarted
after node failures and repaired back to K."""

import numpy as np
import pytest

from repro.apps.memory import MemoryRegistry
from repro.core import DumpConfig
from repro.repair import scan_cluster
from repro.svc import CheckpointService, UnknownDumpError

TENANT = "app"


def make_app(n, k):
    config = DumpConfig(replication_factor=k, chunk_size=64, f_threshold=1024)
    service = CheckpointService(n, config)
    service.register_tenant(TENANT)
    return service, MemoryRegistry()


def checkpoint(service, registry):
    service.submit(TENANT, registry, kind="delta")
    (outcome,) = service.drain()
    return outcome


def restart(service, registry, epoch):
    for rank in range(service.n_ranks):
        dataset, _report = service.restore(TENANT, rank, epoch)
        registry.restore(rank, dataset)


def run_app(n, k, n_steps, interval, fail_nodes=None):
    """A toy iterative app, checkpointed every ``interval`` steps; with
    ``fail_nodes`` it loses them and restarts from its newest epoch."""
    service, registry = make_app(n, k)
    states = [np.full(64, float(rank)) for rank in range(n)]
    # identical across ranks -> natural replicas
    shared = [np.zeros(128) for _ in range(n)]
    for rank in range(n):
        registry.register(rank, "state", states[rank])
        registry.register(rank, "shared", shared[rank])
    outcomes = []
    for step in range(1, n_steps + 1):
        for rank in range(n):
            states[rank] += 1.0
            shared[rank][:] = step
        if step % interval == 0:
            outcomes.append(checkpoint(service, registry))
    if fail_nodes is not None:
        for node in fail_nodes:
            service.cluster.fail_node(node)
        restart(service, registry, outcomes[-1].tenant_dump_id)
    return service, states, shared, outcomes


def one_checkpoint(n, k, size=32):
    service, registry = make_app(n, k)
    states = [np.full(size, float(rank + 1)) for rank in range(n)]
    for rank, state in enumerate(states):
        registry.register(rank, "state", state)
    checkpoint(service, registry)
    return service, registry, states


class TestScheduling:
    def test_restart_without_checkpoint_raises(self):
        service, registry = make_app(1, 1)
        registry.register(0, "x", np.zeros(2))
        with pytest.raises(UnknownDumpError):
            service.restore(TENANT, 0, 0)


class TestRestart:
    def test_restart_restores_last_checkpoint(self):
        _service, states, shared, outcomes = run_app(
            n=4, k=2, n_steps=10, interval=4, fail_nodes=()
        )
        # Only the first checkpoint is a full; the second ships the
        # chunks the app wrote since.
        assert [o.kind for o in outcomes] == ["full", "delta"]
        for rank in range(4):
            # Last checkpoint at step 8: state was rank + 8.
            assert np.all(states[rank] == rank + 8)
            assert np.all(shared[rank] == 8)

    def test_restart_after_node_failures(self):
        # K-1 = 2 nodes die; every rank, those two included, restores from
        # the surviving replicas.
        _service, states, _shared, _outcomes = run_app(
            n=6, k=3, n_steps=6, interval=3, fail_nodes=(1, 4)
        )
        for rank, state in enumerate(states):
            assert np.all(state == rank + 6)

    def test_restart_specific_dump_id(self):
        service, registry = make_app(3, 2)
        states = [np.zeros(16) for _ in range(3)]
        for rank, state in enumerate(states):
            registry.register(rank, "s", state)
        for step in (1, 2, 3):
            for state in states:
                state[:] = step
            checkpoint(service, registry)
        restart(service, registry, 0)  # roll back to the first checkpoint
        for state in states:
            assert np.all(state == 1.0)

    def test_stats_accumulate(self):
        service, _states, _shared, outcomes = run_app(
            n=2, k=2, n_steps=4, interval=2
        )
        assert [len(o.reports) for o in outcomes] == [2, 2]
        # The full captures every registered byte of both ranks.
        assert sum(r.dataset_bytes for r in outcomes[0].reports) == 2 * (
            64 * 8 + 128 * 8
        )
        usage = service._state(TENANT).usage
        assert usage.total_dumps == usage.live_dumps == 2
        assert usage.logical_bytes == sum(
            r.dataset_bytes for o in outcomes for r in o.reports
        )


class TestRepair:
    def test_repair_tops_cluster_back_up_to_k(self):
        service, _registry, _states = one_checkpoint(6, 3)
        service.cluster.fail_node(4)
        report = service.repair()
        assert report.complete
        assert report.chunks_moved > 0
        assert scan_cluster(service.cluster, 3).clean

    def test_auto_repair_runs_after_restart(self):
        service, registry, states = one_checkpoint(6, 3, size=16)
        service.cluster.fail_node(2)
        for state in states:
            state[:] = -1.0
        restart(service, registry, 0)
        report = service.repair()
        for rank, state in enumerate(states):
            assert np.all(state == rank + 1)
        assert report.complete
        assert scan_cluster(service.cluster, 3).clean

    def test_repair_without_failures_is_clean(self):
        service, _registry, _states = one_checkpoint(4, 2, size=8)
        report = service.repair()
        assert report.clean
        assert report.chunks_moved == 0


class TestTimeline:
    def test_runtime_feeds_its_timeline(self):
        """Dumps, restores and repairs land samples on the service's
        timeline, stamped with its logical tick (one per drain step)."""
        service, states, _shared, _outcomes = run_app(
            n=4, k=2, n_steps=4, interval=2
        )
        service.restore(TENANT, 0, 1)
        counts = service.timeline.op_counts()
        assert counts["dump"] == 2  # steps 2 and 4
        assert counts["restore"] == 1
        assert service.timeline.latest_tick() == 2  # ticks, not wall clock

    def test_dump_samples_carry_strategy_and_bytes(self):
        service, _registry, _states = one_checkpoint(2, 2, size=64)
        (sample,) = service.timeline.samples(op="dump")
        assert sample.tenant == TENANT
        assert sample.backend == service.backend
        assert sample.strategy == service.config.strategy.value
        assert sample.values["logical_bytes"] == 2 * 64 * 8
        assert sample.values["latency_s"] >= 0

    def test_restore_sample_reports_locality(self):
        service, _registry, _states = one_checkpoint(4, 2, size=256)
        service.restore(TENANT, 0, 0)
        (sample,) = service.timeline.samples(op="restore")
        assert 0.0 <= sample.values["locality"] <= 1.0
        assert service.timeline.sketch("restore", "latency_s").count == 1

    def test_repair_lands_on_the_timeline(self):
        service, _registry, _states = one_checkpoint(4, 2, size=256)
        service.cluster.fail_node(3)
        service.repair()
        assert service.timeline.op_counts().get("repair", 0) == 1
