"""Checkpoint chains through the multi-tenant service: a dump is an epoch
of its tenant's chain, requested as a full or a delta through the one
submit / step path; global dump-id space, quota and usage accounting, GC
refunds, attribution and the timeline/metrics surface."""

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.apps.mutating import MutatingWorkload
from repro.chain import ChainBrokenError
from repro.core.config import DumpConfig
from repro.dst.invariants import (
    check_chain_refcounts,
    check_cross_tenant_accounting,
    check_tenant_isolation,
    recount_references,
)
from repro.svc import (
    CheckpointService,
    QuotaExceededError,
    TenantQuota,
    UnknownDumpError,
)

N = 3
CS = 64

pytestmark = pytest.mark.smoke


def make_service(**kwargs):
    kwargs.setdefault("config", DumpConfig(replication_factor=2, chunk_size=CS))
    return CheckpointService(N, **kwargs)


def make_workload(seed=99):
    return MutatingWorkload(
        seed=seed,
        segment_lengths=(CS * 4, CS + 21, CS // 2),
        chunk_size=CS,
        dirty_frac=0.3,
    )


def dump(service, tenant, workload, kind="full"):
    ticket = service.submit(tenant, workload, kind=kind)
    service.drain()
    return service.outcome(ticket)


def grow_chain(service, tenant, workload, deltas=3):
    """Dump a full plus ``deltas`` delta epochs, returning the per-epoch
    workload snapshots for oracle comparison."""
    dump(service, tenant, workload, kind="full")
    snapshots = {0: workload.at_epoch(0)}
    for epoch in range(1, deltas + 1):
        workload.advance(1)
        dump(service, tenant, workload, kind="delta")
        snapshots[epoch] = workload.at_epoch(epoch)
    return snapshots


def assert_no_manifest_names_an_unstored_chunk(service):
    """Pins included: a pin lists what *its* chain still references."""
    nodes = service.cluster.nodes
    for node in nodes:
        for rank, dump_id in node.manifest_keys():
            for fp in node.get_manifest(rank, dump_id).fingerprints:
                assert any(other.chunks.has(fp) for other in nodes), (
                    f"rank {rank} dump {dump_id} names {fp.hex()[:12]}"
                )


def assert_restores(service, tenant, snapshots):
    for epoch in service.chain_of(tenant).live_epochs():
        for rank in range(N):
            data, _report = service.restore(tenant, rank, epoch)
            assert data.to_bytes() == snapshots[epoch].build_dataset(
                rank, N
            ).to_bytes()


class TestChainLifecycle:
    def test_chain_dump_restore_round_trip(self):
        service = make_service()
        service.register_tenant("a")
        snapshots = grow_chain(service, "a", make_workload())
        manager = service.chain_of("a")
        assert manager.live_epochs() == [0, 1, 2, 3]
        for epoch, snap in snapshots.items():
            for rank in range(N):
                data, report = service.restore("a", rank, epoch)
                assert data.to_bytes() == snap.build_dataset(
                    rank, N
                ).to_bytes()
                assert report.total_bytes == len(data.to_bytes())

    def test_deltas_ship_less_than_fulls(self):
        service = make_service()
        service.register_tenant("a")
        workload = make_workload()
        full = dump(service, "a", workload, kind="full")
        workload.advance(1)
        delta = dump(service, "a", workload, kind="delta")
        assert full.kind == "full" and delta.kind == "delta"
        assert not delta.promoted
        assert 0 < delta.changed_chunks < delta.total_chunks
        assert sum(r.dataset_bytes for r in delta.reports) < sum(
            r.dataset_bytes for r in full.reports
        )

    def test_first_chain_dump_promotes_delta_to_full(self):
        service = make_service()
        service.register_tenant("a")
        result = dump(service, "a", make_workload(), kind="delta")
        assert result.kind == "full"
        assert result.promoted

    def test_restores_survive_gc_and_compaction(self):
        service = make_service()
        service.register_tenant("a")
        workload = make_workload()
        snapshots = grow_chain(service, "a", workload, deltas=4)
        gc = service.gc("a")
        assert gc.tenant_dump_id == 0 and gc.pinned
        compacted = service.compact("a")
        assert compacted.compacted and compacted.epoch == 4
        assert service.chain_of("a").live_epochs() == [1, 2, 3, 4]
        assert_restores(service, "a", snapshots)

    def test_gc_of_empty_chain_raises(self):
        service = make_service()
        service.register_tenant("a")
        with pytest.raises(UnknownDumpError):
            service.gc("a")
        with pytest.raises(UnknownDumpError):
            service.compact("a")


class TestGlobalIdSpace:
    def test_chain_dumps_share_the_global_dump_id_space(self):
        """One tenant's fulls and another's deltas interleave without ever
        reusing a dump id, and every id is registered to its tenant."""
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        workload = make_workload()
        first = dump(service, "b", workload)
        chain_ids = [dump(service, "a", workload).global_dump_id]
        for _ in range(2):
            workload.advance(1)
            chain_ids.append(
                dump(service, "a", workload, kind="delta").global_dump_id
            )
        second = dump(service, "b", workload)
        all_ids = [first.global_dump_id, *chain_ids, second.global_dump_id]
        assert all_ids == sorted(set(all_ids))
        assert (first.tenant_dump_id, second.tenant_dump_id) == (0, 1)
        for dump_id in chain_ids:
            assert service._dump_owner[dump_id] == "a"
        assert [
            node.dump_id for _e, node in sorted(service.chain_of("a").nodes.items())
        ] == chain_ids

    def test_compaction_allocates_a_fresh_registered_id(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        outcome = service.compact("a")
        assert outcome.new_dump_id > outcome.old_dump_id
        assert service._dump_owner[outcome.new_dump_id] == "a"
        # the allocator moved past the compaction id
        assert service._next_global > outcome.new_dump_id
        # compacting a full is a no-op and takes no id
        before = service._next_global
        assert not service.compact("a").compacted
        assert service._next_global == before
        assert not service.isolation_audit()


class TestQuotaAndUsage:
    def test_chain_dump_usage_is_refunded_on_gc(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        usage = service._state("a").usage
        assert usage.live_dumps == 3
        before = usage.logical_bytes
        assert before > 0
        service.gc("a")
        assert usage.live_dumps == 2
        assert usage.logical_bytes < before
        charges = service._state("a").charges
        assert sorted(charges) == service.chain_of("a").live_epochs() == [1, 2]
        assert usage.logical_bytes == sum(b for b, _c in charges.values())
        assert usage.chunk_records == sum(c for _b, c in charges.values())

    def test_chain_quota_is_checked_against_full_size(self):
        """Admission uses the full dataset size (a delta may always
        promote), so a quota below one full epoch rejects even deltas."""
        workload = make_workload()
        full_bytes = sum(
            workload.per_rank_bytes(N, rank) for rank in range(N)
        )
        service = make_service()
        service.register_tenant(
            "a", TenantQuota(max_logical_bytes=full_bytes)
        )
        dump(service, "a", workload, kind="full")
        workload.advance(1)
        with pytest.raises(QuotaExceededError):
            service.submit("a", workload, kind="delta")
        usage = service._state("a").usage
        assert usage.rejected == 1
        # after pruning the full, the delta (promoted to full) admits
        service.gc("a")
        result = dump(service, "a", workload, kind="delta")
        assert (result.tenant_dump_id, result.kind, result.promoted) == (
            1, "full", True
        )


class TestSharedIndexIsolation:
    def test_other_tenant_gc_never_breaks_a_chain(self):
        """Tenant b dumps content overlapping a's chain, then GCs it;
        the shared refcounted index must keep a's chunks restorable."""
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        snapshots = grow_chain(
            service, "a", make_workload(seed=7), deltas=2
        )
        outcome = dump(service, "b", make_workload(seed=7))
        gc = service.gc("b", outcome.tenant_dump_id)
        assert gc.chunks_dropped == 0 and gc.retained_cross_tenant > 0
        assert_restores(service, "a", snapshots)

    def test_chain_gc_never_breaks_another_tenants_dump(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        grow_chain(service, "a", make_workload(seed=7), deltas=1)
        outcome = dump(service, "b", make_workload(seed=7))
        while service.chain_of("a").live_epochs():
            service.gc("a")
        for rank in range(N):
            service.restore("b", rank, outcome.tenant_dump_id)

    def test_isolation_audit_covers_chain_manifests(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        assert not service.isolation_audit()
        service.gc("a")  # retired, still pinned under its global id
        assert not service.isolation_audit()
        service._dump_owner[service.chain_of("a").nodes[0].dump_id] = "b"
        assert len(service.isolation_audit()) == 1

    def test_accounting_does_not_depend_on_how_the_bytes_were_dumped(self):
        """The same bytes as a full and as a full-then-deltas chain whose
        older epochs were collected bill and share exactly alike."""
        def two_tenants():
            service = make_service()
            service.register_tenant("a")
            service.register_tenant("b")
            tip = make_workload(seed=7)
            tip.advance(2)
            dump(service, "a", tip)
            return service, tip

        plain, tip = two_tenants()
        dump(plain, "b", tip)
        chained, _tip = two_tenants()
        grow_chain(chained, "b", make_workload(seed=7), deltas=2)
        chained.gc("b")
        chained.gc("b")
        assert chained.chain_of("b").live_epochs() == [2]
        for service in (plain, chained):
            assert service.cross_tenant_dedup_ratio() == 0.5
        assert chained.index.unique_bytes == plain.index.unique_bytes
        assert chained.index.cross_tenant_shared_bytes == (
            plain.index.cross_tenant_shared_bytes
        ) == plain.index.unique_bytes
        for policy in ("first-writer", "split"):
            assert chained.index.charged_bytes(["a", "b"], policy) == (
                plain.index.charged_bytes(["a", "b"], policy)
            )

    def test_only_tenants_are_billed_with_deltas_live(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        dump(service, "a", make_workload(seed=3))
        grow_chain(service, "b", make_workload(seed=4), deltas=2)
        assert 0.0 <= service.cross_tenant_dedup_ratio() < 1.0
        for policy in ("first-writer", "split"):
            charged = service.index.charged_bytes(service.tenants(), policy)
            assert set(charged) == set(service.tenants())
            assert sum(charged.values()) == pytest.approx(
                service.index.unique_bytes
            )
        assert all(
            set(entry.refs) <= {"a", "b"} for _fp, entry in service.index.items()
        )
        assert check_cross_tenant_accounting(service, 0) == []
        chains = [service.chain_of(name) for name in service.tenants()]
        assert check_chain_refcounts(chains, 0) == []

    def test_parity_full_restores_with_a_node_down(self):
        service = make_service(config=DumpConfig(
            replication_factor=2, chunk_size=CS, redundancy="parity"
        ))
        service.register_tenant("a")
        workload = make_workload()
        dump(service, "a", workload)
        service.cluster.fail_node(1)
        for rank in range(N):
            data, _report = service.restore("a", rank, 0)
            assert data.to_bytes() == workload.build_dataset(rank, N).to_bytes()


def restores_after_node_losses(n, ranks_per_node, k, lost, backend, placed=True):
    """One full and two deltas on ``n`` ranks hosted ``ranks_per_node`` to a
    node, then, for every set of ``lost`` nodes, fail them and restore every
    rank of every epoch.  Returns (good, bad) (node set, epoch) counts.
    ``placed=False`` gives the service the one-rank-per-node map while the
    real failure domains stay the blocks: rank-granular placement."""
    import itertools

    nodes = [rank // ranks_per_node for rank in range(n)]
    service = CheckpointService(
        n, config=DumpConfig(replication_factor=k, chunk_size=256),
        backend=backend, rank_to_node=nodes if placed else None,
    )
    service.register_tenant("a")
    workload = MutatingWorkload(seed=1, chunk_size=256)
    want = []
    for epoch, kind in enumerate(("full", "delta", "delta")):
        if epoch:
            workload.advance()
        dump(service, "a", workload, kind=kind)
        want.append([
            workload.at_epoch(epoch).build_dataset(rank, n).to_bytes()
            for rank in range(n)
        ])
    good = bad = 0
    for down in itertools.combinations(range(nodes[-1] + 1), lost):
        for rank in range(n):
            if nodes[rank] in down:
                service.cluster.fail_rank(rank)
        for epoch, datasets in enumerate(want):
            try:
                ok = all(
                    service.restore("a", rank, epoch)[0].to_bytes() == datasets[rank]
                    for rank in range(n)
                )
            except ChainBrokenError:  # a chunk with no live holder
                ok = False
            good, bad = good + ok, bad + (not ok)
        service.cluster.revive_all()
    return good, bad


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestSharedNodes:
    """Several ranks per node: every dump places against the service's
    rank -> node map, so replicas survive the loss of whole nodes."""

    def test_every_pair_of_four_nodes_can_fail(self, backend):
        assert restores_after_node_losses(12, 3, 3, 2, backend) == (18, 0)

    def test_rank_granular_placement_loses_data_with_every_pair(self, backend):
        lost = restores_after_node_losses(12, 3, 3, 2, backend, placed=False)
        assert lost == (0, 18)

    def test_every_single_node_can_fail_at_k2(self, backend):
        assert restores_after_node_losses(8, 2, 2, 1, backend) == (12, 0)


class TestBrokenChainSurfacing:
    def test_restore_of_pruned_epoch_raises_typed_error(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        pruned = service.gc("a").tenant_dump_id
        # still in the chain as a pin, gone from the tenant's namespace
        assert service.chain_of("a").nodes[pruned].retired
        with pytest.raises(UnknownDumpError, match="garbage-collected"):
            service.restore("a", 0, pruned)
        with pytest.raises(UnknownDumpError, match="garbage-collected"):
            service.gc("a", pruned)
        with pytest.raises(UnknownDumpError, match="has no dump"):
            service.restore("a", 0, 3)

    def test_lost_parent_chunks_raise_chain_broken_error(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        manager = service.chain_of("a")
        # destroy every replica of the base full's chunks out-of-band
        base = manager.nodes[0]
        for fps in base.fps:
            for fp in fps:
                for node in service.cluster.nodes:
                    node.chunks.discard(fp)
        with pytest.raises(ChainBrokenError) as excinfo:
            service.restore("a", 0, 2)
        assert (excinfo.value.epoch, excinfo.value.writer_epoch) == (2, 0)
        assert excinfo.value.missing


class TestObservability:
    def test_chain_ops_land_on_the_timeline(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        service.restore("a", 0, 2)
        service.gc("a")
        samples = {}
        for s in service.timeline.samples():
            samples.setdefault(s.op, []).append(s.values)
        assert len(samples["dump"]) == 3
        assert samples["dump"][0]["delta_fraction"] == 1.0
        for values in samples["dump"][1:]:
            assert 0.0 < values["delta_fraction"] < 1.0
            assert values["changed_chunks"] == values["chunks"] > 0
        assert [v["depth"] for v in samples["restore"]] == [3.0]
        assert [v["pinned"] for v in samples["gc"]] == [1.0]

    def test_chain_metrics_are_exported(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        service.restore("a", 1, 1)
        service.gc("a")
        service.compact("a")
        snap = service.capture_metrics()
        counters = snap["metrics"]["counters"]
        # every dump counts, whatever its kind, under the one set of names
        assert counters["svc_dumps_submitted"]["max"] == 3
        assert counters["svc_dumps_completed"]["max"] == 3
        assert counters["svc_restores_completed"]["max"] == 1
        assert counters["svc_dumps_gced"]["max"] == 1
        names = set(counters) | set(snap["metrics"]["gauges"])
        assert not [name for name in names if name.startswith("svc_chain_")]


class TestPinsFollowTheChainsOwnReferences:
    def test_another_tenants_reference_pins_nothing(self):
        """Two tenants dump the same state as a full and a delta each, then
        each collects its full.  ``a``'s pin used to keep every chunk the
        shared index still knew, and ``b``'s reference satisfied that;
        ``b``'s GC then discarded the chunks, leaving ``a``'s pinned
        manifests naming chunks that no node stores and ``repair``
        reporting them lost on a cluster where nothing ever failed."""
        from repro.dst.invariants import check_referential_integrity

        service = make_service()
        snapshots = {}
        for name in ("a", "b"):
            service.register_tenant(name)
            workload = MutatingWorkload(
                seed=3, segment_lengths=(CS * 4,), chunk_size=CS,
                dirty_frac=1.0,
            )
            snapshots[name] = grow_chain(service, name, workload, deltas=1)
        pinned = set()
        for name in ("a", "b"):
            outcome = service.gc(name, 0)
            assert outcome.pinned
            pinned.add(outcome.global_dump_id)
        assert_no_manifest_names_an_unstored_chunk(service)
        assert check_referential_integrity(service.cluster, 0, pinned) == []
        assert service.repair().lost_chunks == 0
        for name in ("a", "b"):
            assert_restores(service, name, snapshots[name])


class ServiceMachine(RuleBasedStateMachine):
    """Two tenants drawing full and delta requests, steps, gc, compact and
    restores in any order: every live dump restores to the bytes it was
    taken from, usage is the sum of the live charges, and the shared index
    is the recount of the chains, after every step."""

    tenants = ("a", "b")

    def __init__(self):
        super().__init__()
        self.service = make_service(max_inflight=1)
        self.workloads = {}
        self.snapshots = {name: {} for name in self.tenants}
        self.queued = set()
        for i, name in enumerate(self.tenants):
            self.service.register_tenant(name)
            # same base, drifting apart: real cross-tenant sharing
            self.workloads[name] = make_workload(seed=5)
            self.workloads[name].advance(i)
        for kind in ("full", "delta"):  # the draws start on a chain of two
            for name in self.tenants:
                self.submit(name, kind)
            while self.queued:
                self.step()

    def live(self, tenant):
        return self.service.chain_of(tenant).live_epochs()

    @rule(tenant=st.sampled_from(tenants), kind=st.sampled_from(("full", "delta", "delta", "delta")))
    def submit(self, tenant, kind):
        if tenant in self.queued:  # one change per dump: the dirty contract
            return
        self.workloads[tenant].advance(1)
        self.service.submit(tenant, self.workloads[tenant], kind=kind)
        self.queued.add(tenant)

    @precondition(lambda self: self.queued)
    @rule()
    def step(self):
        (outcome,) = self.service.step()
        self.queued.discard(outcome.tenant)
        workload = self.workloads[outcome.tenant]
        taken = self.snapshots[outcome.tenant]
        assert outcome.tenant_dump_id == max(taken, default=-1) + 1
        taken[outcome.tenant_dump_id] = workload.at_epoch(workload.epoch)

    @rule(tenant=st.sampled_from(tenants), pick=st.integers(0, 7), default=st.booleans())
    def gc(self, tenant, pick, default):
        live = self.live(tenant)
        if not live:
            return
        victim = live[0] if default else live[pick % len(live)]
        outcome = self.service.gc(tenant, None if default else victim)
        assert outcome.tenant_dump_id == victim
        assert victim not in self.live(tenant)
        assert_no_manifest_names_an_unstored_chunk(self.service)

    @rule(tenant=st.sampled_from(tenants), pick=st.integers(0, 7), default=st.booleans())
    def compact(self, tenant, pick, default):
        live = self.live(tenant)
        if not live:
            return
        epoch = live[-1] if default else live[pick % len(live)]
        outcome = self.service.compact(tenant, None if default else epoch)
        assert outcome.epoch == epoch
        assert self.service.chain_of(tenant).depth_of(epoch) == 1

    @rule(tenant=st.sampled_from(tenants), pick=st.integers(0, 7), rank=st.integers(0, N - 1))
    def restore(self, tenant, pick, rank):
        live = self.live(tenant)
        if not live:
            return
        epoch = live[pick % len(live)]
        data, _report = self.service.restore(tenant, rank, epoch)
        want = self.snapshots[tenant][epoch].build_dataset(rank, N)
        assert data.to_bytes() == want.to_bytes()

    @invariant()
    def books_balance(self):
        service = self.service
        for name in self.tenants:
            state = service._state(name)
            assert sorted(state.charges) == self.live(name)
            assert state.usage.live_dumps == len(state.charges)
            assert state.usage.logical_bytes == sum(
                b for b, _c in state.charges.values()
            )
            assert state.usage.chunk_records == sum(
                c for _b, c in state.charges.values()
            )
        assert service.isolation_audit() == []
        assert check_tenant_isolation(service, 0) == []
        chains = [service.chain_of(name) for name in self.tenants]
        assert {
            fp: dict(entry.refs) for fp, entry in service.index.items()
        } == recount_references(chains)
        assert check_chain_refcounts(chains, 0) == []
        assert check_cross_tenant_accounting(service, 0) == []
        assert 0.0 <= service.cross_tenant_dedup_ratio() < 1.0

    def teardown(self):
        for name in self.tenants:
            assert_restores(self.service, name, self.snapshots[name])


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
