"""The multi-tenant checkpoint service.

:class:`CheckpointService` is the long-lived front door over the existing
dump/restore/repair machinery: one sharded :class:`~repro.storage.Cluster`
shared by every tenant, one global dedup index attributing chunks to
tenants, and an admission queue that turns concurrent dump requests into
a fair, bounded schedule.

Tenant namespaces are the isolation boundary.  A tenant addresses its
dumps with small per-tenant ids (0, 1, 2, …); the service maps those to
monotonically allocated *global* dump ids under which manifests actually
live.  There is no API that accepts a global id, so a tenant can never
name — let alone restore — another tenant's dump; the mapping itself is
double-checked against the dump-owner table on every resolve
(:class:`~repro.svc.errors.TenantIsolationError` if it ever disagrees).

Chunk payloads, by contrast, dedup *across* tenants: two tenants dumping
the same bytes store them once (the paper's naturally-distributed
redundancy, stretched over users instead of ranks).  Garbage collection
by one tenant drops a payload only when the global index shows no tenant
references it anymore.

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
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import DumpConfig
from repro.core.dump import DumpReport, dump_output
from repro.core.restore import restore_dataset
from repro.core.runner import run_collective
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.timeline import DEFAULT_CAPACITY, TimelineStore
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

ATTRIBUTION_POLICIES = ("first-writer", "split")


@dataclass
class TenantState:
    """Everything the service tracks for one tenant."""

    name: str
    quota: TenantQuota
    usage: TenantUsage = field(default_factory=TenantUsage)
    #: tenant dump id -> global dump id (live dumps only)
    namespace: Dict[int, int] = field(default_factory=dict)
    #: tenant dump ids already garbage-collected
    gced: Set[int] = field(default_factory=set)
    next_dump_id: int = 0


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


class CheckpointService:
    """Long-lived multi-tenant front door over one sharded cluster."""

    def __init__(
        self,
        n_ranks: int,
        config: Optional[DumpConfig] = None,
        shard_count: int = 8,
        backend: str = "thread",
        max_inflight: int = 2,
        queue_depth: int = 64,
        attribution: str = "first-writer",
        timeout: Optional[float] = None,
        timeline_capacity: int = DEFAULT_CAPACITY,
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
        self.backend = backend
        self.max_inflight = max_inflight
        self.attribution = attribution
        self.timeout = timeout
        self.cluster = Cluster(n_ranks, shard_count=shard_count)
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
        #: global dump id -> distinct fingerprints its manifests reference
        self._dump_fps: Dict[int, List] = {}
        self._pending: Dict[int, DumpRequest] = {}
        self._outcomes: Dict[int, DumpOutcome] = {}
        self._next_global = 0
        self._next_ticket = 0
        self.rejections: Dict[str, int] = {}
        #: per-tenant incremental checkpoint chains (lazily created);
        #: they share ``self.index`` under per-epoch owner names, so one
        #: tenant's chain GC can never discard a chunk another tenant's
        #: chain — or a regular dump — still references
        self._chains: Dict[str, object] = {}
        #: (tenant, epoch) -> (logical_bytes, chunk_records) charged at
        #: chain-dump time, refunded on chain GC
        self._chain_charges: Dict[Tuple[str, int], Tuple[int, int]] = {}

    # -- tenants -----------------------------------------------------------------
    def register_tenant(
        self, name: str, quota: Optional[TenantQuota] = None
    ) -> TenantState:
        if name in self._tenants:
            raise TenantExistsError(f"tenant {name!r} already registered")
        state = TenantState(name=name, quota=quota or TenantQuota())
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

    def _resolve(self, tenant: str, tenant_dump_id: int) -> int:
        """Tenant-visible dump id -> global dump id, isolation-checked."""
        state = self._state(tenant)
        if tenant_dump_id in state.gced:
            raise UnknownDumpError(
                f"tenant {tenant!r} dump {tenant_dump_id} was garbage-collected"
            )
        try:
            global_id = state.namespace[tenant_dump_id]
        except KeyError:
            raise UnknownDumpError(
                f"tenant {tenant!r} has no dump {tenant_dump_id}"
            ) from None
        owner = self._dump_owner.get(global_id)
        if owner != tenant:
            raise TenantIsolationError(
                f"namespace corruption: tenant {tenant!r} dump "
                f"{tenant_dump_id} maps to global dump {global_id} "
                f"owned by {owner!r}"
            )
        return global_id

    # -- submission / admission --------------------------------------------------
    def submit(
        self,
        tenant: str,
        workload,
        phase_hook: Optional[Callable] = None,
    ) -> int:
        """Queue one dump of ``workload`` for ``tenant``; returns a ticket.

        Quota and backpressure rejections raise typed errors *here*, before
        anything is queued — a rejected request consumes no slot.
        """
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
                logical_bytes=request_bytes,
                n_chunks=request_chunks,
                submitted_tick=self.tick,
                phase_hook=phase_hook,
            )
            self.queue.push(request)
        except Exception as exc:
            state.usage.rejected += 1
            kind = type(exc).__name__
            self.rejections[kind] = self.rejections.get(kind, 0) + 1
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
            self.tick += 1
            admitted: List[DumpRequest] = []
            while len(admitted) < self.max_inflight:
                request = self.queue.pop()
                if request is None:
                    break
                admitted.append(request)
            for request in admitted:
                outcomes.append(self._execute(request))
            self.trace.metrics.gauge("svc_queue_depth").set(self.queue.depth)
            self._after_tick()
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
        state = self._state(request.tenant)
        global_id = self._next_global
        self._next_global += 1
        tenant_dump_id = state.next_dump_id
        state.next_dump_id += 1
        wait_ticks = self.tick - request.submitted_tick
        n = self.n_ranks
        workload = request.workload
        config = self.config
        cluster = self.cluster
        phase_hook = request.phase_hook
        start = time.perf_counter()

        def rank_main(comm):
            dataset = workload.build_dataset(comm.rank, n)
            return dump_output(
                comm, dataset, config, cluster,
                dump_id=global_id, phase_hook=phase_hook,
            )

        with self.trace.span(
            "svc-dump",
            tenant=request.tenant,
            ticket=request.ticket,
            dump_id=global_id,
            wait_ticks=wait_ticks,
        ):
            reports, _world = run_collective(
                n, rank_main, cluster=cluster,
                backend=self.backend, timeout=self.timeout,
            )

        # Index every distinct fingerprint the dump's manifests reference.
        # Scan ALL nodes (dead included): a manifest replica stranded on a
        # crashed node still pins its chunks, and GC later drops manifests
        # everywhere — missing one here would orphan chunks on revival.
        fps: Set = set()
        seen_ranks: Set[int] = set()
        for node in cluster.nodes:
            for rank, dump_id in node.manifest_keys():
                if dump_id != global_id or rank in seen_ranks:
                    continue
                seen_ranks.add(rank)
                fps.update(node.get_manifest(rank, dump_id).fingerprints)
        new_chunks, _new_bytes, cross_hits = self.index.record_many(
            request.tenant, fps, cluster.stored_sizes
        )

        state.namespace[tenant_dump_id] = global_id
        self._dump_owner[global_id] = request.tenant
        self._dump_fps[global_id] = sorted(fps)
        actual_bytes = sum(r.dataset_bytes for r in reports)
        actual_chunks = sum(r.n_chunks for r in reports)
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
                strategy=getattr(
                    self.config.strategy, "value", str(self.config.strategy)
                ),
                backend=self.backend,
                epoch=global_id,
                latency_s=elapsed,
                queue_wait_ticks=wait_ticks,
                dedup_ratio=stats["dedup_ratio"],
                load_skew=skew,
                bytes_moved=sum(r.sent_bytes for r in reports),
                logical_bytes=actual_bytes,
                chunks=actual_chunks,
                new_chunks=new_chunks,
                cross_tenant_hits=cross_hits,
            )

        outcome = DumpOutcome(
            ticket=request.ticket,
            tenant=request.tenant,
            tenant_dump_id=tenant_dump_id,
            global_dump_id=global_id,
            reports=list(reports),
            wait_ticks=wait_ticks,
            new_chunks=new_chunks,
            cross_tenant_hits=cross_hits,
        )
        self._outcomes[request.ticket] = outcome
        self._pending.pop(request.ticket, None)
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
        global_id = self._resolve(tenant, tenant_dump_id)
        start = time.perf_counter()
        dataset, report = restore_dataset(
            self.cluster,
            rank,
            global_id,
            trace=self.trace,
        )
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
            epoch=global_id,
            latency_s=elapsed,
            bytes=report.total_bytes,
            remote_bytes=report.remote_bytes,
            chunks=chunks,
            locality=locality,
            decoded_chunks=report.decoded_chunks,
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

    def gc(self, tenant: str, tenant_dump_id: int) -> GCOutcome:
        """Garbage-collect one of ``tenant``'s dumps.

        Manifests of the dump disappear from every node; chunk payloads
        are physically discarded only when the global index shows *no*
        tenant (this one included, via its other dumps) still references
        them — one tenant's GC can never break another tenant's restore.
        """
        global_id = self._resolve(tenant, tenant_dump_id)
        state = self._state(tenant)
        outcome = GCOutcome(
            tenant=tenant,
            tenant_dump_id=tenant_dump_id,
            global_dump_id=global_id,
        )
        for fp in self._dump_fps.get(global_id, ()):
            remaining, others = self.index.release(tenant, fp)
            if remaining == 0:
                for node in self.cluster.nodes:
                    reclaimed = node.chunks.discard(fp)
                    if reclaimed:
                        outcome.bytes_reclaimed += reclaimed
                outcome.chunks_dropped += 1
            else:
                outcome.chunks_retained += 1
                if others:
                    outcome.retained_cross_tenant += 1
        for node in self.cluster.nodes:
            for rank in range(self.n_ranks):
                freed = node.drop_manifest(rank, global_id)
                if freed:
                    outcome.manifests_dropped += 1
        ticket = self._ticket_of(global_id)
        reports = self._outcomes[ticket].reports if ticket is not None else []
        state.usage.logical_bytes = max(
            0,
            state.usage.logical_bytes
            - sum(r.dataset_bytes for r in reports),
        )
        state.usage.chunk_records = max(
            0,
            state.usage.chunk_records - sum(r.n_chunks for r in reports),
        )
        state.usage.live_dumps -= 1
        state.namespace.pop(tenant_dump_id, None)
        state.gced.add(tenant_dump_id)
        self._dump_fps.pop(global_id, None)
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
        )
        return outcome

    # -- incremental checkpoint chains -------------------------------------------
    def chain_of(self, tenant: str):
        """The tenant's :class:`~repro.chain.ChainManager`, created on
        first use.  Chains live in their own addressing domain (epochs,
        not tenant dump ids) but share the service cluster, the global
        dedup index (under ``<tenant>/chain:<epoch>`` owner names) and the
        global dump-id space, so chain manifests never collide with
        regular dumps and cross-tenant chunk sharing stays refcounted."""
        from repro.chain import ChainManager

        self._state(tenant)
        manager = self._chains.get(tenant)
        if manager is None:
            manager = ChainManager(
                self.cluster, self.config, self.n_ranks,
                backend=self.backend, index=self.index,
                owner_prefix=f"{tenant}/chain", trace=self.trace,
            )
            self._chains[tenant] = manager
        manager.set_next_dump_id(self._next_global)
        return manager

    def _sync_chain_ids(self, manager) -> None:
        """Keep the service's global dump-id allocator ahead of every id
        the chain handed out (deltas, compactions)."""
        self._next_global = max(self._next_global, manager._next_dump_id)

    def chain_dump(self, tenant: str, workload, kind: str = "delta"):
        """Dump the workload's current state as the next epoch of the
        tenant's chain (one service tick per executed chain dump, like a
        drain iteration).  Quota is checked against the *full* dataset
        size — a delta may always promote to a full — while usage charges
        only what the dump actually shipped."""
        state = self._state(tenant)
        request_bytes = sum(
            workload.per_rank_bytes(self.n_ranks, rank)
            for rank in range(self.n_ranks)
        )
        chunk_size = max(1, self.config.chunk_size)
        request_chunks = -(-request_bytes // chunk_size)
        try:
            check_quota(
                tenant, state.quota, state.usage,
                request_bytes, request_chunks, self.tick,
            )
        except Exception as exc:
            state.usage.rejected += 1
            kind_name = type(exc).__name__
            self.rejections[kind_name] = self.rejections.get(kind_name, 0) + 1
            self.trace.metrics.counter("svc_dumps_rejected").inc()
            raise
        manager = self.chain_of(tenant)
        global_id = self._next_global
        self._next_global += 1
        self.tick += 1
        start = time.perf_counter()
        result = manager.chain_dump(workload, kind=kind, dump_id=global_id)
        elapsed = time.perf_counter() - start
        self._sync_chain_ids(manager)
        self._dump_owner[result.dump_id] = tenant
        charged_bytes = sum(r.dataset_bytes for r in result.reports)
        charged_chunks = sum(r.n_chunks for r in result.reports)
        state.usage.logical_bytes += charged_bytes
        state.usage.chunk_records += charged_chunks
        state.usage.live_dumps += 1
        state.usage.total_dumps += 1
        state.usage.submit_ticks.append(self.tick)
        self._chain_charges[(tenant, result.epoch)] = (
            charged_bytes, charged_chunks,
        )
        metrics = self.trace.metrics
        metrics.counter("svc_chain_dumps_completed").inc()
        metrics.gauge("svc_chain_delta_fraction").set(result.delta_fraction)
        metrics.sketch("svc_dump_latency_sketch").observe(elapsed)
        stats = self._observe_store_stats()
        self.timeline.record(
            "dump", self.tick,
            tenant=tenant,
            strategy=getattr(
                self.config.strategy, "value", str(self.config.strategy)
            ),
            backend=self.backend,
            epoch=result.epoch,
            chain=1.0,
            latency_s=elapsed,
            delta_fraction=result.delta_fraction,
            changed_chunks=result.changed_chunks,
            new_chunks=result.new_unique_chunks,
            new_bytes=result.new_unique_bytes,
            logical_bytes=charged_bytes,
            dedup_ratio=stats["dedup_ratio"],
        )
        self._after_tick()
        return result

    def chain_restore(self, tenant: str, rank: int, epoch: int):
        """Time-travel restore of the tenant's chain at ``epoch``."""
        self._state(tenant)
        manager = self.chain_of(tenant)
        start = time.perf_counter()
        dataset, report = manager.restore_epoch(rank, epoch)
        elapsed = time.perf_counter() - start
        chunks = report.local_chunks + report.remote_chunks
        locality = report.local_chunks / chunks if chunks else 1.0
        metrics = self.trace.metrics
        metrics.counter("svc_chain_restores_completed").inc()
        metrics.sketch("svc_restore_latency_sketch").observe(elapsed)
        metrics.sketch("svc_restore_locality_sketch").observe(locality)
        metrics.gauge("svc_restore_locality").set(locality)
        self.timeline.record(
            "restore", self.tick,
            tenant=tenant,
            backend=self.backend,
            epoch=epoch,
            chain=1.0,
            latency_s=elapsed,
            depth=manager.depth_of(epoch),
            bytes=report.total_bytes,
            remote_bytes=report.remote_bytes,
            chunks=chunks,
            locality=locality,
        )
        return dataset, report

    def chain_gc(self, tenant: str, epoch: Optional[int] = None):
        """Prune one epoch of the tenant's chain (the oldest live epoch
        by default), refunding the usage it was charged at dump time."""
        from repro.chain.errors import ChainStateError

        state = self._state(tenant)
        manager = self.chain_of(tenant)
        if epoch is None:
            live = manager.live_epochs()
            if not live:
                raise ChainStateError(
                    f"tenant {tenant!r} has no live chain epochs to prune"
                )
            epoch = live[0]
        outcome = manager.prune(epoch)
        charged_bytes, charged_chunks = self._chain_charges.pop(
            (tenant, epoch), (0, 0)
        )
        state.usage.logical_bytes = max(
            0, state.usage.logical_bytes - charged_bytes
        )
        state.usage.chunk_records = max(
            0, state.usage.chunk_records - charged_chunks
        )
        state.usage.live_dumps -= 1
        self.trace.metrics.counter("svc_chain_epochs_pruned").inc()
        self._observe_store_stats()
        self.timeline.record(
            "gc", self.tick,
            tenant=tenant,
            backend=self.backend,
            epoch=epoch,
            chain=1.0,
            chunks_dropped=outcome.chunks_dropped,
            bytes_reclaimed=outcome.bytes_freed,
            pinned=float(outcome.pinned),
        )
        return outcome

    def chain_compact(self, tenant: str, epoch: Optional[int] = None):
        """Compact one epoch of the tenant's chain (the tip by default)
        into a synthetic full under a fresh global dump id."""
        from repro.chain.errors import ChainStateError

        self._state(tenant)
        manager = self.chain_of(tenant)
        if epoch is None:
            live = manager.live_epochs()
            if not live:
                raise ChainStateError(
                    f"tenant {tenant!r} has no live chain epochs to compact"
                )
            epoch = live[-1]
        outcome = manager.compact(epoch)
        self._sync_chain_ids(manager)
        if outcome.compacted:
            self._dump_owner[outcome.new_dump_id] = tenant
        self.trace.metrics.counter("svc_chain_epochs_compacted").inc()
        return outcome

    def _ticket_of(self, global_id: int) -> Optional[int]:
        for ticket, outcome in self._outcomes.items():
            if outcome.global_dump_id == global_id:
                return ticket
        return None

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
        """Cross-check namespaces against the owner table; each returned
        string is a corruption (the dst invariant asserts this is empty)."""
        problems: List[str] = []
        seen: Dict[int, Tuple[str, int]] = {}
        for name, state in sorted(self._tenants.items()):
            for tenant_dump_id, global_id in sorted(state.namespace.items()):
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
