"""``repro.svc``: a long-lived multi-tenant checkpoint service.

The paper's redundancy-aware replication pays off most when many writers
share content; this package serves that setting.  One sharded
content-addressed cluster (fingerprint-prefix shards, per-shard locking)
backs every tenant; manifests stay tenant-scoped behind per-tenant dump
namespaces while chunk payloads dedup across tenants, with a global index
attributing shared bytes fairly (first-writer-pays or split).  Concurrent
dump requests pass an admission queue — FIFO per tenant, round-robin
across tenants, bounded depth, typed quota rejections — whose health is
surfaced through ``repro.obs`` gauges.

Every dump is an epoch of its tenant's :class:`~repro.chain.ChainManager`,
requested as a full or a delta through the one submit / step path.

Entry points: :class:`CheckpointService` (register tenants, submit a
``"full"`` or a ``"delta"``, step / drain, restore, gc, compact, repair),
:func:`build_report` /
:func:`format_service_report` for the ``repro-eval serve`` output, and
:class:`TenantWorkload` for overlap-controlled synthetic tenants.
"""

from repro.svc.admission import AdmissionQueue, DumpRequest
from repro.svc.errors import (
    DumpRateExceededError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
    TenantExistsError,
    TenantIsolationError,
    UnknownDumpError,
    UnknownTenantError,
)
from repro.svc.index import ChunkEntry, GlobalDedupIndex
from repro.svc.quota import TenantQuota, TenantUsage
from repro.svc.report import (
    ServiceReport,
    TenantReport,
    build_report,
    format_service_report,
    format_top,
)
from repro.svc.service import (
    ATTRIBUTION_POLICIES,
    CheckpointService,
    DumpOutcome,
    GCOutcome,
)
from repro.svc.workloads import TenantWorkload

__all__ = [
    "ATTRIBUTION_POLICIES",
    "AdmissionQueue",
    "CheckpointService",
    "ChunkEntry",
    "DumpOutcome",
    "DumpRateExceededError",
    "DumpRequest",
    "GCOutcome",
    "GlobalDedupIndex",
    "QueueFullError",
    "QuotaExceededError",
    "ServiceError",
    "ServiceReport",
    "TenantExistsError",
    "TenantIsolationError",
    "TenantQuota",
    "TenantReport",
    "TenantUsage",
    "TenantWorkload",
    "UnknownDumpError",
    "UnknownTenantError",
    "build_report",
    "format_service_report",
    "format_top",
]
