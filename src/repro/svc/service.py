"""The multi-tenant checkpoint service.

:class:`CheckpointService` is the long-lived front door over the existing
dump/restore/repair machinery: one sharded :class:`~repro.storage.Cluster`
shared by every tenant, one global dedup index attributing chunks to
tenants, and an admission queue that turns concurrent dump requests into
a fair, bounded schedule.

There is one dump model: a dump is an epoch of its tenant's
:class:`~repro.chain.ChainManager` (DESIGN.md "One dump model").  A request
is a ``"full"`` or a ``"delta"``; a standalone dump is a chain of depth 1.
The service owns admission, quota, ids, isolation and telemetry; the chain
owns the epoch's columns, its references in the shared index, GC and pins.

Tenant namespaces are the isolation boundary.  A tenant addresses its
dumps with small per-tenant ids (0, 1, 2, …), which are its chain's
epochs; manifests live under monotonically allocated *global* dump ids.
There is no API that accepts a global id, so a tenant can never name — let
alone restore — another tenant's dump; the mapping itself is
double-checked against the dump-owner table on every resolve
(:class:`~repro.svc.errors.TenantIsolationError` if it ever disagrees).

Chunk payloads, by contrast, dedup *across* tenants: two tenants dumping
the same bytes store them once (the paper's naturally-distributed
redundancy, stretched over users instead of ranks).  Every chain holds its
references under its tenant's name, so garbage collection by one tenant
drops a payload only when the global index shows no tenant references it
anymore, and attribution needs no second rule.

Logical time is the service ``tick`` (one per drain iteration): quota
rate-windows and admission-latency accounting run on ticks, so fuzz
replays are deterministic; wall-clock only feeds the obs histograms,
which never enter a verdict digest.

Every dump/restore/repair/GC also lands one sample on the service's
:class:`~repro.obs.timeline.TimelineStore` (tagged tenant / strategy /
backend / epoch at the current tick), and an attached
:class:`~repro.obs.slo.SLOEngine` (see :meth:`CheckpointService.attach_slo`)
is advanced once per tick — the continuous-telemetry substrate behind
``repro-eval serve --slo`` and the dst ``slo-determinism`` invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.config import DumpConfig
from repro.core.dump import DumpReport
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.timeline import DEFAULT_CAPACITY, TimelineStore
from repro.simmpi.backend import normalize_backend
from repro.simmpi.trace import Trace
from repro.storage.local_store import Cluster
from repro.svc.admission import AdmissionQueue, DumpRequest
from repro.svc.errors import (
    TenantExistsError,
    TenantIsolationError,
    UnknownDumpError,
    UnknownTenantError,
)
from repro.svc.index import GlobalDedupIndex
from repro.svc.quota import TenantQuota, TenantUsage, check_quota

if TYPE_CHECKING:
    from repro.chain import ChainManager, ChainNode

ATTRIBUTION_POLICIES = ("first-writer", "split")


@dataclass
class TenantState:
    """Everything the service tracks for one tenant."""

    name: str
    quota: TenantQuota
    #: the tenant's dumps: tenant dump id == chain epoch
    chain: "ChainManager"
    usage: TenantUsage = field(default_factory=TenantUsage)
    #: live dump id -> (logical_bytes, chunk_records) charged at dump time,
    #: refunded on gc
    charges: Dict[int, Tuple[int, int]] = field(default_factory=dict)


@dataclass
class DumpOutcome:
    """Completed dump as seen by its tenant."""

    ticket: int
    tenant: str
    tenant_dump_id: int
    global_dump_id: int
    reports: List[DumpReport]
    #: ticks spent queued before admission
    wait_ticks: int = 0
    #: chunks this dump added that no tenant had stored before
    new_chunks: int = 0
    #: chunks satisfied by another tenant's earlier dump
    cross_tenant_hits: int = 0
    #: the kind actually dumped (a requested delta promotes to a full when
    #: the tenant has no live dump or the chunking is CDC)
    kind: str = "full"
    promoted: bool = False
    #: chunks this dump rewrote / chunks of its datasets, summed over ranks
    changed_chunks: int = 0
    total_chunks: int = 0
    #: the collective's per-rank traces (the service's own is ``trace``)
    traces: list = field(default_factory=list)


@dataclass
class GCOutcome:
    """Result of garbage-collecting one tenant dump."""

    tenant: str
    tenant_dump_id: int
    global_dump_id: int
    chunks_dropped: int = 0
    bytes_reclaimed: int = 0
    #: chunks kept because some live dump (any tenant) still references them
    chunks_retained: int = 0
    #: of those, chunks another tenant references
    retained_cross_tenant: int = 0
    manifests_dropped: int = 0
    #: the dump still anchors live deltas: its manifests were replaced with
    #: pinned (still-referenced) subsets instead of dropped
    pinned: bool = False


class CheckpointService:
    """Long-lived multi-tenant front door over one sharded cluster.

    ``rank_to_node`` is the deployment: which node hosts each of the
    ``n_ranks`` ranks (default: one rank per node).  It is the cluster's
    map, and every dump places its replicas against it.
    """

    def __init__(
        self,
        n_ranks: int,
        config: Optional[DumpConfig] = None,
        shard_count: int = 8,
        backend: Optional[str] = None,
        max_inflight: int = 2,
        queue_depth: int = 64,
        attribution: str = "first-writer",
        timeout: Optional[float] = None,
        timeline_capacity: int = DEFAULT_CAPACITY,
        rank_to_node: Optional[List[int]] = None,
    ) -> None:
        if attribution not in ATTRIBUTION_POLICIES:
            raise ValueError(
                f"unknown attribution policy {attribution!r}; "
                f"expected one of {ATTRIBUTION_POLICIES}"
            )
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.n_ranks = n_ranks
        self.config = config or DumpConfig()
        self.shard_count = shard_count
        #: resolved once (``None``: ``REPRO_SPMD_BACKEND``, else thread), so
        #: every dump, report and timeline sample names the backend that ran
        self.backend = normalize_backend(backend)
        self.max_inflight = max_inflight
        self.attribution = attribution
        self.timeout = timeout
        self.cluster = Cluster(
            n_ranks, rank_to_node=rank_to_node, shard_count=shard_count
        )
        self.index = GlobalDedupIndex(shard_count=max(shard_count, 1))
        self.queue = AdmissionQueue(max_depth=queue_depth)
        #: service-side trace (pseudo-rank 0): admission spans + gauges
        self.trace = Trace(rank=0, level="span")
        #: continuous telemetry: one sample per dump/restore/repair/gc
        #: (``timeline_capacity=0`` disables recording entirely)
        self.timeline = TimelineStore(capacity=timeline_capacity)
        #: optional :class:`~repro.obs.slo.SLOEngine`, advanced every tick
        self.slo = None
        self.tick = 0
        self._tenants: Dict[str, TenantState] = {}
        self._dump_owner: Dict[int, str] = {}
        self._pending: Dict[int, DumpRequest] = {}
        self._outcomes: Dict[int, DumpOutcome] = {}
        self._next_global = 0
        self._next_ticket = 0
        self.rejections: Dict[str, int] = {}

    # -- tenants -----------------------------------------------------------------
    def register_tenant(
        self, name: str, quota: Optional[TenantQuota] = None
    ) -> TenantState:
        if name in self._tenants:
            raise TenantExistsError(f"tenant {name!r} already registered")
        # Imported here: repro.chain imports repro.svc.index.
        from repro.chain import ChainManager

        # The chains share the cluster and the index, each under its
        # tenant's name: one tenant's GC can never discard a chunk another
        # tenant still references.
        chain = ChainManager(
            self.cluster, self.config, self.n_ranks, backend=self.backend,
            index=self.index, owner=name, trace=self.trace,
        )
        state = TenantState(name=name, quota=quota or TenantQuota(), chain=chain)
        self._tenants[name] = state
        return state

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def _state(self, tenant: str) -> TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise UnknownTenantError(
                f"tenant {tenant!r} is not registered"
            ) from None

    def chain_of(self, tenant: str) -> "ChainManager":
        """The tenant's chain, for reading (tests, reports): its epochs are
        the tenant's dump ids, its nodes' ``dump_id`` the global ids."""
        return self._state(tenant).chain

    def _resolve(self, tenant: str, tenant_dump_id: int) -> "ChainNode":
        """Tenant-visible dump id -> its live chain node, isolation-checked."""
        chain = self._state(tenant).chain
        node = chain.nodes.get(tenant_dump_id)
        if node is None or node.retired:
            raise UnknownDumpError(
                f"tenant {tenant!r} dump {tenant_dump_id} was garbage-collected"
                if 0 <= tenant_dump_id < chain.next_epoch
                else f"tenant {tenant!r} has no dump {tenant_dump_id}"
            )
        owner = self._dump_owner.get(node.dump_id)
        if owner != tenant:
            raise TenantIsolationError(
                f"namespace corruption: tenant {tenant!r} dump "
                f"{tenant_dump_id} maps to global dump {node.dump_id} "
                f"owned by {owner!r}"
            )
        return node

    def _live_dump(self, tenant: str, newest: bool) -> int:
        """The tenant's oldest (or newest) live dump id."""
        live = self._state(tenant).chain.live_epochs()
        if not live:
            raise UnknownDumpError(f"tenant {tenant!r} has no live dump")
        return live[-1 if newest else 0]

    # -- submission / admission --------------------------------------------------
    def submit(
        self,
        tenant: str,
        workload,
        phase_hook: Optional[Callable] = None,
        kind: str = "full",
    ) -> int:
        """Queue one dump of ``workload`` for ``tenant``, as a ``"full"`` or
        as a ``"delta"`` against the tenant's newest live dump; returns a
        ticket.

        Quota and backpressure rejections raise typed errors *here*, before
        anything is queued — a rejected request consumes no slot.  Quota is
        checked against the full dataset size whatever the kind (a delta may
        promote to a full); usage is charged the chunks the dump shipped,
        which for a delta leaves out those its parent already holds.
        """
        if kind not in ("full", "delta"):
            raise ValueError(f"dump kind must be 'full' or 'delta', got {kind!r}")
        state = self._state(tenant)
        request_bytes = sum(
            workload.per_rank_bytes(self.n_ranks, rank)
            for rank in range(self.n_ranks)
        )
        chunk_size = max(1, self.config.chunk_size)
        request_chunks = -(-request_bytes // chunk_size)  # ceil div
        try:
            check_quota(
                tenant, state.quota, state.usage,
                request_bytes, request_chunks, self.tick,
            )
            ticket = self._next_ticket
            request = DumpRequest(
                ticket=ticket,
                tenant=tenant,
                workload=workload,
                submitted_tick=self.tick,
                phase_hook=phase_hook,
                kind=kind,
            )
            self.queue.push(request)
        except Exception as exc:
            state.usage.rejected += 1
            reason = type(exc).__name__
            self.rejections[reason] = self.rejections.get(reason, 0) + 1
            self.trace.metrics.counter("svc_dumps_rejected").inc()
            raise
        self._next_ticket += 1
        state.usage.submit_ticks.append(self.tick)
        self._pending[ticket] = request
        self.trace.metrics.counter("svc_dumps_submitted").inc()
        self.trace.metrics.gauge("svc_queue_depth").set(self.queue.depth)
        return ticket

    def attach_slo(self, engine) -> None:
        """Attach an :class:`~repro.obs.slo.SLOEngine`: it is advanced over
        the timeline once per service tick from here on."""
        self.slo = engine

    def _after_tick(self) -> None:
        if self.slo is not None:
            self.slo.advance(self.timeline, self.tick)

    def tick_idle(self) -> None:
        """Advance logical time by one tick without admitting work — how
        scripted arrival processes (``repro-eval slo``, bursty dst
        scenarios) model gaps between bursts so burn-rate windows age."""
        self.tick += 1
        self._after_tick()

    def drain(self) -> List[DumpOutcome]:
        """Run queued dumps to completion, fairly, bounded per tick.

        Each tick admits at most ``max_inflight`` requests (round-robin
        across tenants) and executes them; repeats until the queue is
        empty.  Returns the outcomes in execution order.
        """
        outcomes: List[DumpOutcome] = []
        while self.queue.depth:
            outcomes.extend(self.step())
        return outcomes

    def step(self) -> List[DumpOutcome]:
        """One drain tick (at most ``max_inflight`` dumps); for callers
        that interleave service work with other events (the dst executor)."""
        if not self.queue.depth:
            return []
        self.tick += 1
        outcomes = []
        for _ in range(self.max_inflight):
            request = self.queue.pop()
            if request is None:
                break
            outcomes.append(self._execute(request))
        self.trace.metrics.gauge("svc_queue_depth").set(self.queue.depth)
        self._after_tick()
        return outcomes

    def outcome(self, ticket: int) -> DumpOutcome:
        try:
            return self._outcomes[ticket]
        except KeyError:
            raise UnknownDumpError(
                f"ticket {ticket} has no completed dump"
            ) from None

    # -- execution ---------------------------------------------------------------
    def _execute(self, request: DumpRequest) -> DumpOutcome:
        """The one place a dump runs: the next epoch of its tenant's chain."""
        self._pending.pop(request.ticket, None)
        state = self._state(request.tenant)
        chain = state.chain
        # Allocated before the collective and never reused: a dump that
        # raises may have left manifests under it.  The tenant's id is the
        # epoch, which the chain consumes only when the dump commits.
        global_id = self._next_global
        self._next_global += 1
        wait_ticks = self.tick - request.submitted_tick
        # The service's current settings, not those at registration.
        chain.config = self.config
        chain.timeout = self.timeout
        start = time.perf_counter()
        with self.trace.span(
            "svc-dump",
            tenant=request.tenant,
            ticket=request.ticket,
            dump_id=global_id,
            wait_ticks=wait_ticks,
        ):
            result = chain.chain_dump(
                request.workload, request.kind, request.phase_hook, global_id
            )
        reports = result.reports
        self._dump_owner[global_id] = request.tenant
        actual_bytes = sum(r.dataset_bytes for r in reports)
        actual_chunks = sum(r.n_chunks for r in reports)
        state.charges[result.epoch] = (actual_bytes, actual_chunks)
        state.usage.logical_bytes += actual_bytes
        state.usage.chunk_records += actual_chunks
        state.usage.live_dumps += 1
        state.usage.total_dumps += 1

        elapsed = time.perf_counter() - start
        metrics = self.trace.metrics
        metrics.counter("svc_dumps_completed").inc()
        metrics.histogram(
            "svc_admission_latency_seconds", LATENCY_BUCKETS
        ).observe(elapsed)
        metrics.counter("svc_admission_wait_ticks").inc(wait_ticks)
        metrics.sketch("svc_dump_latency_sketch").observe(elapsed)
        metrics.sketch("svc_queue_wait_sketch").observe(wait_ticks)
        metrics.gauge("svc_cross_tenant_dedup_ratio").set(
            self.cross_tenant_dedup_ratio()
        )
        stats = self._observe_store_stats()
        if self.timeline.enabled:
            from repro.sim.metrics import load_skew

            skew, _worst = load_skew([r.sent_bytes for r in reports])
            self.timeline.record(
                "dump", self.tick,
                tenant=request.tenant,
                strategy=self.config.strategy.value,
                backend=self.backend,
                epoch=global_id,
                latency_s=elapsed,
                queue_wait_ticks=wait_ticks,
                dedup_ratio=stats["dedup_ratio"],
                load_skew=skew,
                bytes_moved=sum(r.sent_bytes for r in reports),
                logical_bytes=actual_bytes,
                chunks=actual_chunks,
                new_chunks=result.new_unique_chunks,
                cross_tenant_hits=result.cross_owner_hits,
                delta_fraction=result.delta_fraction,
                changed_chunks=result.changed_chunks,
            )

        outcome = DumpOutcome(
            ticket=request.ticket,
            tenant=request.tenant,
            tenant_dump_id=result.epoch,
            global_dump_id=global_id,
            reports=reports,
            wait_ticks=wait_ticks,
            new_chunks=result.new_unique_chunks,
            cross_tenant_hits=result.cross_owner_hits,
            kind=result.kind,
            promoted=result.promoted,
            changed_chunks=result.changed_chunks,
            total_chunks=result.total_chunks,
            traces=result.traces,
        )
        self._outcomes[request.ticket] = outcome
        return outcome

    def _observe_store_stats(self) -> Dict:
        stats = self.cluster.store_stats()
        metrics = self.trace.metrics
        metrics.gauge("svc_store_chunks").set(stats["chunks"])
        metrics.gauge("svc_store_logical_bytes").set(stats["logical_bytes"])
        metrics.gauge("svc_store_physical_bytes").set(
            stats["physical_bytes"]
        )
        metrics.gauge("svc_store_dedup_ratio").set(stats["dedup_ratio"])
        metrics.gauge("svc_store_shard_skew").set(stats["shard_skew"])
        return stats

    # -- tenant-facing data path -------------------------------------------------
    def restore(self, tenant: str, rank: int, tenant_dump_id: int):
        """Restore ``rank``'s dataset of one of ``tenant``'s own dumps.

        Records restore spans and the ``restore_locality`` gauge on the
        service trace.  Every restore also lands its
        counters/latency/locality on the service metrics and a ``restore``
        sample on the timeline, so :meth:`capture_metrics` snapshots cover
        the read path too.
        """
        node = self._resolve(tenant, tenant_dump_id)
        chain = self._state(tenant).chain
        start = time.perf_counter()
        dataset, report = chain.restore_epoch(rank, tenant_dump_id)
        elapsed = time.perf_counter() - start
        chunks = report.local_chunks + report.remote_chunks
        locality = report.local_chunks / chunks if chunks else 1.0
        metrics = self.trace.metrics
        metrics.counter("svc_restores_completed").inc()
        metrics.counter("svc_restore_bytes").inc(report.total_bytes)
        metrics.counter("svc_restore_remote_bytes").inc(report.remote_bytes)
        metrics.histogram(
            "svc_restore_latency_seconds", LATENCY_BUCKETS
        ).observe(elapsed)
        metrics.sketch("svc_restore_latency_sketch").observe(elapsed)
        metrics.sketch("svc_restore_locality_sketch").observe(locality)
        # Chunk-based locality (the core ``restore_locality`` gauge is
        # byte-based).
        metrics.gauge("svc_restore_locality").set(locality)
        self.timeline.record(
            "restore", self.tick,
            tenant=tenant,
            backend=self.backend,
            epoch=node.dump_id,
            latency_s=elapsed,
            bytes=report.total_bytes,
            remote_bytes=report.remote_bytes,
            chunks=chunks,
            locality=locality,
            decoded_chunks=report.decoded_chunks,
            depth=chain.depth_of(tenant_dump_id),
        )
        return dataset, report

    def repair(self, timeout: Optional[float] = None):
        """Re-replicate every tenant's surviving dumps after failures."""
        from repro.repair import repair_cluster

        start = time.perf_counter()
        with self.trace.span("svc-repair"):
            report = repair_cluster(
                self.cluster,
                self.config.replication_factor,
                timeout=timeout or self.timeout,
                backend=self.backend,
            )
        self.trace.metrics.counter("svc_repairs_completed").inc()
        self.timeline.record(
            "repair", self.tick,
            backend=self.backend,
            latency_s=time.perf_counter() - start,
            chunks_moved=report.chunks_moved,
            bytes_moved=report.bytes_moved,
            manifests_moved=report.manifests_moved,
        )
        return report

    def gc(self, tenant: str, tenant_dump_id: Optional[int] = None) -> GCOutcome:
        """Garbage-collect one of ``tenant``'s dumps (its oldest live one
        by default) and refund what it was charged.

        Chunk payloads are physically discarded only when the global index
        shows *no* tenant (this one included, via its other dumps) still
        references them — one tenant's GC can never break another tenant's
        restore.  Manifests of the dump disappear from every node unless
        live deltas still build on it; then they shrink to pins.
        """
        if tenant_dump_id is None:
            tenant_dump_id = self._live_dump(tenant, newest=False)
        global_id = self._resolve(tenant, tenant_dump_id).dump_id
        state = self._state(tenant)
        pruned = state.chain.prune(tenant_dump_id)
        outcome = GCOutcome(
            tenant=tenant,
            tenant_dump_id=tenant_dump_id,
            global_dump_id=global_id,
            chunks_dropped=pruned.distinct_dropped,
            bytes_reclaimed=pruned.bytes_freed,
            chunks_retained=pruned.chunks_retained,
            retained_cross_tenant=pruned.retained_by_others,
            manifests_dropped=pruned.manifests_dropped,
            pinned=pruned.pinned,
        )
        charged_bytes, charged_chunks = state.charges.pop(tenant_dump_id)
        state.usage.logical_bytes -= charged_bytes
        state.usage.chunk_records -= charged_chunks
        state.usage.live_dumps -= 1
        self.trace.metrics.counter("svc_dumps_gced").inc()
        self.trace.metrics.gauge("svc_cross_tenant_dedup_ratio").set(
            self.cross_tenant_dedup_ratio()
        )
        self._observe_store_stats()
        self.timeline.record(
            "gc", self.tick,
            tenant=tenant,
            backend=self.backend,
            epoch=global_id,
            chunks_dropped=outcome.chunks_dropped,
            chunks_retained=outcome.chunks_retained,
            bytes_reclaimed=outcome.bytes_reclaimed,
            manifests_dropped=outcome.manifests_dropped,
            pinned=float(outcome.pinned),
        )
        return outcome

    def compact(self, tenant: str, tenant_dump_id: Optional[int] = None):
        """Rewrite one of ``tenant``'s dumps (its newest live one by
        default) as a synthetic full under a fresh global dump id, so it no
        longer depends on the dumps before it; a no-op on a full."""
        if tenant_dump_id is None:
            tenant_dump_id = self._live_dump(tenant, newest=True)
        self._resolve(tenant, tenant_dump_id)
        outcome = self._state(tenant).chain.compact(
            tenant_dump_id, dump_id=self._next_global
        )
        if outcome.compacted:
            self._next_global += 1
            self._dump_owner[outcome.new_dump_id] = tenant
        return outcome

    # -- introspection -----------------------------------------------------------
    def cross_tenant_dedup_ratio(self) -> float:
        """Fraction of the tenants' combined dedup'd footprints the service
        avoids storing thanks to cross-tenant sharing: ``1 - unique /
        sum(per-tenant referenced)``; 0.0 with one tenant or no sharing."""
        per_tenant = sum(
            self.index.referenced_bytes(t) for t in self._tenants
        )
        if not per_tenant:
            return 0.0
        return 1.0 - self.index.unique_bytes / per_tenant

    def isolation_audit(self) -> List[str]:
        """Cross-check every chain node (retired ones included: their pins
        still sit under a global id) against the owner table; each returned
        string is a corruption (the dst invariant asserts this is empty)."""
        problems: List[str] = []
        seen: Dict[int, Tuple[str, int]] = {}
        for name, state in sorted(self._tenants.items()):
            for tenant_dump_id, node in sorted(state.chain.nodes.items()):
                global_id = node.dump_id
                owner = self._dump_owner.get(global_id)
                if owner != name:
                    problems.append(
                        f"tenant {name!r} dump {tenant_dump_id} maps to "
                        f"global {global_id} owned by {owner!r}"
                    )
                prior = seen.get(global_id)
                if prior is not None:
                    problems.append(
                        f"global dump {global_id} reachable from both "
                        f"{prior} and {(name, tenant_dump_id)}"
                    )
                seen[global_id] = (name, tenant_dump_id)
        return problems

    def capture_metrics(self, meta: Optional[Dict] = None) -> Dict:
        """Validated ``repro.obs/run/v1`` snapshot of the service trace."""
        from repro.obs.export import capture_run

        base = {
            "source": "repro.svc",
            "backend": self.backend,
            "tenants": len(self._tenants),
            "shard_count": self.shard_count,
            "attribution": self.attribution,
            "timeline": {
                "recorded": self.timeline.recorded,
                "dropped": self.timeline.dropped,
                "ops": self.timeline.op_counts(),
            },
        }
        base.update(meta or {})
        return capture_run([self.trace], meta=base)
