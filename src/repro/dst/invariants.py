"""Invariant oracles the fuzzer checks after every scenario step.

Each checker walks shared cluster/report state and returns
:class:`Violation` records instead of raising, so one run reports every
broken property at once and the verdict document stays a pure value (the
determinism guarantee compares them byte-for-byte).

The replication checks are phrased against a *floor* — a lower bound on
live replicas per ``(dump, rank)`` maintained by the executor (see
:class:`repro.dst.executor.ReplicaLedger`): a dump establishes
``min(K_eff, live_at_snapshot)`` (one less for a rank whose own node was
already dead), every node death afterwards costs at most one replica of
any chunk, and a repair resets the floor for everything still restorable.
Anything the cluster stores below its floor is a real bug, never an
accepted loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.offsets import window_layout
from repro.core.restore import verify_restorable
from repro.core.shuffle import partners_of
from repro.storage.local_store import Cluster, StorageError


@dataclass(frozen=True)
class Violation:
    """One broken invariant, serializable into the verdict document."""

    invariant: str
    step: int
    detail: str

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "step": self.step,
            "detail": self.detail,
        }


def _manifest_fps(cluster: Cluster, rank: int, dump_id: int):
    """Distinct fingerprints of a rank's manifest, from any node (live or
    dead) — an invariant walk may consult state a real restore could not."""
    for node in cluster.nodes:
        if node.has_manifest(rank, dump_id):
            return set(node.get_manifest(rank, dump_id).fingerprints)
    return None


def check_replication(
    cluster: Cluster,
    step: int,
    floors: Dict[Tuple[int, int], int],
) -> List[Violation]:
    """Every manifest chunk of every ``(dump, rank)`` with a positive floor
    must have at least ``floor`` live replica holders, and the manifest
    itself at least ``floor`` live holders."""
    out: List[Violation] = []
    for (dump_id, rank), floor in sorted(floors.items()):
        if floor < 1:
            continue
        holders = cluster.manifest_holders(rank, dump_id)
        if len(holders) < floor:
            out.append(Violation(
                "replication", step,
                f"manifest of rank {rank} dump {dump_id} has "
                f"{len(holders)} live holders, floor is {floor}",
            ))
        fps = _manifest_fps(cluster, rank, dump_id)
        if fps is None:
            out.append(Violation(
                "replication", step,
                f"manifest of rank {rank} dump {dump_id} vanished from "
                f"every node, floor is {floor}",
            ))
            continue
        for fp in sorted(fps):
            live = len(cluster.locate(fp))
            if live < floor:
                out.append(Violation(
                    "replication", step,
                    f"chunk {fp.hex()[:12]} of rank {rank} dump {dump_id} "
                    f"has {live} live replicas, floor is {floor}",
                ))
    return out


def check_referential_integrity(
    cluster: Cluster, step: int, pinned_dumps=(), index=None
) -> List[Violation]:
    """No orphan chunks: every fingerprint in any chunk store must be
    referenced by some manifest somewhere in the cluster (dead nodes
    included — losing every live manifest replica must not reclassify the
    surviving chunks as garbage) or, where chains share an ``index``, by
    that (a degraded dump that lost one rank's every manifest replica
    commits all the same, and its epoch still resolves that rank's chunks).
    And the reverse for ``pinned_dumps``, the retired dumps a chain keeps
    as pins: a pin lists what its chain still references, so it may not
    name a chunk that no node, dead ones included, stores (repair would
    report it lost for ever)."""
    referenced = set()
    pinned = set()
    for node in cluster.nodes:
        for rank, dump_id in node.manifest_keys():
            fps = node.get_manifest(rank, dump_id).fingerprints
            referenced.update(fps)
            if dump_id in pinned_dumps:
                pinned.update((dump_id, rank, fp) for fp in fps)
    out: List[Violation] = []
    stored = set()
    for node in cluster.nodes:
        for fp in sorted(node.chunks.fingerprints()):
            stored.add(fp)
            if fp not in referenced and not (
                index is not None and index.has(fp)
            ):
                out.append(Violation(
                    "referential-integrity", step,
                    f"node {node.node_id} stores orphan chunk "
                    f"{fp.hex()[:12]} referenced by no manifest",
                ))
    for dump_id, rank, fp in sorted(pinned):
        if fp not in stored:
            out.append(Violation(
                "referential-integrity", step,
                f"pin of rank {rank} dump {dump_id} names chunk "
                f"{fp.hex()[:12]} that no node stores",
            ))
    return out


def check_audit_consistency(
    cluster: Cluster,
    step: int,
    dump_ids: Sequence[int],
    floors: Dict[Tuple[int, int], int],
) -> List[Violation]:
    """``FailureInjector.audit`` must agree with ``verify_restorable`` on
    every rank, and anything with a positive floor must audit recoverable."""
    from repro.storage.failures import FailureInjector

    injector = FailureInjector(cluster)
    out: List[Violation] = []
    for dump_id in sorted(dump_ids):
        report = injector.audit(dump_id)
        for rank in range(cluster.n_ranks):
            audited = rank in report.recoverable_ranks
            verified = verify_restorable(cluster, rank, dump_id) is None
            if audited != verified:
                out.append(Violation(
                    "audit-consistency", step,
                    f"rank {rank} dump {dump_id}: audit says "
                    f"recoverable={audited} but verify_restorable says "
                    f"{verified}",
                ))
            if floors.get((dump_id, rank), 0) >= 1 and not audited:
                out.append(Violation(
                    "audit-consistency", step,
                    f"rank {rank} dump {dump_id} has floor "
                    f"{floors[(dump_id, rank)]} but audits unrecoverable",
                ))
    return out


def check_tenant_isolation(service, step: int) -> List[Violation]:
    """Multi-tenant oracle: namespaces and the dump-owner table must agree
    (no tenant can reach another tenant's dump), and resolving a dump id a
    tenant does not own must raise instead of silently serving foreign
    data."""
    from repro.svc.errors import ServiceError

    out: List[Violation] = [
        Violation("tenant-isolation", step, problem)
        for problem in service.isolation_audit()
    ]
    names = service.tenants()
    for name in names:
        taken = service.chain_of(name).next_epoch
        foreign_ids = set()
        for other in names:
            if other == name:
                continue
            foreign_ids.update(service.chain_of(other).live_epochs())
        for tenant_dump_id in sorted(foreign_ids):
            if tenant_dump_id < taken:
                # The id exists (or existed) in this tenant's own namespace
                # too; the audit above already proves it maps to this
                # tenant's dump.
                continue
            try:
                service._resolve(name, tenant_dump_id)
            except ServiceError:
                continue
            out.append(Violation(
                "tenant-isolation", step,
                f"tenant {name!r} resolved dump id {tenant_dump_id} it "
                f"never created (owned by another tenant)",
            ))
    return out


def recount_references(managers) -> Dict[bytes, Dict[str, int]]:
    """What the index shared by ``managers`` must hold, from scratch: per
    fingerprint and owner, the number of the owner's live epochs whose
    resolved chunk set holds it."""
    expected: Dict[bytes, Dict[str, int]] = {}
    for manager in managers:
        for epoch in manager.live_epochs():
            for fp in manager.resolved_distinct(epoch):
                refs = expected.setdefault(fp, {})
                refs[manager.owner] = refs.get(manager.owner, 0) + 1
    return expected


def check_cross_tenant_accounting(service, step: int) -> List[Violation]:
    """What only a service has (the references themselves are
    :func:`check_chain_refcounts`'s): every live dump must still have a
    manifest somewhere (dead nodes included), every indexed chunk that was
    ever stored must still be stored somewhere, and attribution must bill
    exactly the unique bytes regardless of policy, with the cross-tenant
    ratio in ``[0, 1)``."""
    out: List[Violation] = []
    cluster = service.cluster
    stored_ids = {
        did for node in cluster.nodes for _rank, did in node.manifest_keys()
    }
    for name in service.tenants():
        chain = service.chain_of(name)
        for epoch in chain.live_epochs():
            global_id = chain.nodes[epoch].dump_id
            if global_id not in stored_ids:
                out.append(Violation(
                    "cross-tenant-accounting", step,
                    f"live dump {epoch} of tenant {name!r} "
                    f"(global {global_id}) has no manifest on any node",
                ))
    for fp, entry in sorted(service.index.items()):
        # Size 0 is "no node stored it when it was recorded": a degraded
        # dump committed although it lost the rank that wrote the chunk.
        if entry.size and not any(
            node.chunks.has(fp) for node in cluster.nodes
        ):
            out.append(Violation(
                "cross-tenant-accounting", step,
                f"indexed chunk {fp.hex()[:12]} is stored on no node",
            ))
    names = service.tenants()
    for policy in ("first-writer", "split"):
        charged = sum(
            service.index.charged_bytes(names, policy=policy).values()
        )
        if abs(charged - service.index.unique_bytes) > 1e-6:
            out.append(Violation(
                "cross-tenant-accounting", step,
                f"{policy} attribution bills {charged} bytes but the "
                f"store holds {service.index.unique_bytes} unique bytes",
            ))
    ratio = service.cross_tenant_dedup_ratio()
    if not 0.0 <= ratio < 1.0:
        out.append(Violation(
            "cross-tenant-accounting", step,
            f"cross-tenant dedup ratio {ratio} is outside [0, 1)",
        ))
    return out


def check_slo_determinism(service, step: int) -> List[Violation]:
    """The attached SLO engine's alert timeline must be a pure fold over
    the telemetry timeline: replaying a fresh engine over ticks
    ``1..service.tick`` must reproduce the live engine's alerts exactly.
    Only sound while the timeline ring has evicted nothing — a dropped
    sample legitimately changes what a replay can see — so the check
    disarms (returns nothing) once ``timeline.dropped > 0``.
    """
    engine = getattr(service, "slo", None)
    timeline = getattr(service, "timeline", None)
    if engine is None or timeline is None or timeline.dropped:
        return []
    replayed = engine.replay(timeline, upto_tick=service.tick)
    if replayed == engine.alerts:
        return []
    return [Violation(
        "slo-determinism", step,
        f"replayed alert timeline diverges from the live engine: "
        f"replay produced {len(replayed)} event(s), live recorded "
        f"{len(engine.alerts)}",
    )]


def check_chain_structure(manager, step: int) -> List[Violation]:
    """Chain shape oracle: no delta may dangle (its parent epoch must
    exist), every live epoch's ancestor path must terminate at a full,
    per-rank position/fingerprint lists must be parallel, sorted and in
    range, and every retired record must still anchor some live epoch
    (anything else should have been swept)."""
    from repro.chain.errors import ChainStateError
    from repro.chain.node import chunk_count

    out: List[Violation] = []
    for epoch in sorted(manager.nodes):
        node = manager.nodes[epoch]
        if node.kind == "delta" and node.parent_epoch not in manager.nodes:
            out.append(Violation(
                "chain-structure", step,
                f"epoch {epoch} references parent epoch "
                f"{node.parent_epoch} which no longer exists "
                f"(dangling delta)",
            ))
            continue
        for rank in range(manager.n):
            positions = node.positions[rank]
            if node.kind == "delta":
                if len(positions) != len(node.fps[rank]):
                    out.append(Violation(
                        "chain-structure", step,
                        f"epoch {epoch} rank {rank}: {len(positions)} "
                        f"positions but {len(node.fps[rank])} fingerprints",
                    ))
                n_chunks = chunk_count(
                    node.segment_lengths[rank], manager.config.chunk_size
                )
                if any(
                    b <= a for a, b in zip(positions, positions[1:])
                ) or (positions and not (
                    0 <= positions[0] and positions[-1] < n_chunks
                )):
                    out.append(Violation(
                        "chain-structure", step,
                        f"epoch {epoch} rank {rank}: delta positions are "
                        f"not strictly increasing within [0, {n_chunks})",
                    ))
    needed = set()
    for epoch in manager.live_epochs():
        try:
            path = manager.path_of(epoch)
        except ChainStateError as exc:
            out.append(Violation(
                "chain-structure", step,
                f"live epoch {epoch} has a broken ancestor path: {exc}",
            ))
            continue
        needed.update(node.epoch for node in path)
    for epoch in sorted(manager.nodes):
        if manager.nodes[epoch].retired and epoch not in needed:
            out.append(Violation(
                "chain-structure", step,
                f"retired epoch {epoch} anchors no live epoch but was "
                f"never swept",
            ))
    return out


def check_chain_refcounts(managers, step: int) -> List[Violation]:
    """Refcount conservation over the chains sharing one index and one
    cluster (a bare manager alone; every tenant's chain in a service): the
    index must equal a from-scratch recount of every live epoch's resolved
    chunk set (:func:`recount_references`: one reference per owner per
    epoch per distinct chunk, no leaks and no premature releases), and —
    every dump of the cluster having flowed through these chains — every
    stored chunk must still be referenced by some live epoch."""
    out: List[Violation] = []
    index, cluster = managers[0].index, managers[0].cluster
    expected = recount_references(managers)
    actual = {fp: dict(entry.refs) for fp, entry in index.items()}
    for fp in sorted(expected.keys() | actual.keys()):
        if expected.get(fp) != actual.get(fp):
            out.append(Violation(
                "chain-refcounts", step,
                f"chunk {fp.hex()[:12]}: index refs {actual.get(fp)} != "
                f"live-epoch recount {expected.get(fp)} (None on the left: "
                f"released too early; on the right: a leaked reference)",
            ))
    for node in cluster.nodes:
        for fp in sorted(node.chunks.fingerprints()):
            if fp not in expected:
                out.append(Violation(
                    "chain-refcounts", step,
                    f"node {node.node_id} stores chunk {fp.hex()[:12]} "
                    f"referenced by no live epoch (GC missed it)",
                ))
    return out


def check_chain_restore(
    manager,
    step: int,
    epoch_floors: Dict[Tuple[int, int], int],
    oracle,
) -> List[Violation]:
    """Time-travel soundness: every live ``(epoch, rank)`` whose
    *effective floor* — the minimum replica floor over every dump on the
    epoch's ancestor path — is positive must restore to exactly the bytes
    the workload held at that epoch (``oracle(epoch, rank) -> bytes``).
    Below the floor a typed failure is acceptable, silently wrong bytes
    never are: whatever a restore returns must equal the oracle."""
    from repro.chain.errors import ChainError

    out: List[Violation] = []
    for (epoch, rank), floor in sorted(epoch_floors.items()):
        expected = oracle(epoch, rank)
        try:
            dataset, _report = manager.restore_epoch(rank, epoch)
        except (ChainError, StorageError) as exc:
            if floor >= 1:
                out.append(Violation(
                    "chain-restore", step,
                    f"epoch {epoch} rank {rank} failed to restore "
                    f"(effective floor {floor}): {exc}",
                ))
            continue
        actual = dataset.to_bytes()
        if actual != expected:
            out.append(Violation(
                "chain-restore", step,
                f"epoch {epoch} rank {rank} restored {len(actual)}B that "
                f"differ from the {len(expected)}B per-epoch oracle",
            ))
    return out


def check_parity_margin(
    cluster: Cluster, step: int, target_k: int
) -> List[Violation]:
    """Parity-mode replication oracle: the repair scanner (stripe-margin
    aware) must find nothing to do right after a healthy dump."""
    from repro.repair import scan_cluster

    scan = scan_cluster(cluster, target_k)
    if scan.clean:
        return []
    return [Violation(
        "parity-margin", step,
        f"repair scan found {scan.deficit_chunks} under-protected chunks "
        f"right after a healthy parity dump (target K={target_k})",
    )]


def check_window_layout(
    step: int,
    reports: Sequence,
    k_eff: int,
    alive_at_start: Sequence[bool],
) -> List[Violation]:
    """Re-derive Algorithm 3's window layout from the dump reports and check
    the CALC_OFF guarantees: per-window sender regions must be disjoint and
    tile ``[0, window_slots)`` exactly, partner lists must match the shuffle
    walk, and each rank's wire traffic must equal its planned load."""
    out: List[Violation] = []
    n = len(reports)
    shuffle = [-1] * n
    for report in reports:
        pos = report.shuffle_position
        if not (0 <= pos < n) or shuffle[pos] != -1:
            out.append(Violation(
                "window-layout", step,
                f"rank {report.rank} reports invalid or duplicate shuffle "
                f"position {pos}",
            ))
            return out
        shuffle[pos] = report.rank
    send_load = [[] for _ in range(n)]
    for report in reports:
        send_load[report.rank] = list(report.load)
    alive = alive_at_start if any(r.degraded for r in reports) else None
    layout = window_layout(shuffle, send_load, k_eff, alive)

    # Regions tile each window exactly: no overlap, no gap, no spill.
    for target in range(n):
        slots = layout.window_slots[target]
        cursor = 0
        for sender, start, count in layout.regions.get(target, []):
            if count < 0:
                out.append(Violation(
                    "window-layout", step,
                    f"window of rank {target}: sender {sender} has negative "
                    f"region size {count}",
                ))
            if start != cursor:
                out.append(Violation(
                    "window-layout", step,
                    f"window of rank {target}: sender {sender} region "
                    f"starts at slot {start}, expected {cursor} "
                    f"(overlap or gap)",
                ))
            if layout.offsets.get((sender, target)) != start:
                out.append(Violation(
                    "window-layout", step,
                    f"offset table disagrees with region start for "
                    f"sender {sender} -> target {target}",
                ))
            cursor += count
        if cursor != slots:
            out.append(Violation(
                "window-layout", step,
                f"window of rank {target}: regions cover {cursor} slots "
                f"but the window exposes {slots}",
            ))

    # Partner lists and per-partner send counts match the agreed layout.
    for report in reports:
        pos = report.shuffle_position
        expected_partners = partners_of(pos, shuffle, k_eff, alive)
        if list(report.partners) != expected_partners:
            out.append(Violation(
                "window-layout", step,
                f"rank {report.rank} reports partners {report.partners}, "
                f"layout expects {expected_partners}",
            ))
        planned = list(report.load[1:])
        sent = list(report.sent_per_partner)
        # Trailing zero slots (a dump around dead nodes plans fewer live
        # partners than K-1) are equivalent whether reported or omitted.
        while planned and planned[-1] == 0:
            planned.pop()
        while sent and sent[-1] == 0:
            sent.pop()
        if sent != planned:
            out.append(Violation(
                "window-layout", step,
                f"rank {report.rank} sent {report.sent_per_partner} chunks "
                f"per partner but planned load {report.load[1:]}",
            ))
    return out


def check_report_sanity(
    step: int,
    reports: Sequence,
    parity: bool = False,
    alive: Optional[Sequence[bool]] = None,
) -> List[Violation]:
    """Cheap per-report consistency: conservation of chunk counts.

    Under parity redundancy the erasure phase ships stripe shards on top of
    the partner-slot traffic, so ``sent_chunks`` legitimately exceeds the
    per-partner sum and only the lower bound is checked.  Ranks whose node
    was dead at the dump snapshot are exempt from the store/discard
    coverage bound: a dead designated rank that is not the elected seeder
    neither stores, discards nor sends its chunks.
    """
    out: List[Violation] = []
    for report in reports:
        partner_sum = sum(report.sent_per_partner)
        if (report.sent_chunks < partner_sum if parity
                else report.sent_chunks != partner_sum):
            out.append(Violation(
                "report-sanity", step,
                f"rank {report.rank}: sent_chunks {report.sent_chunks} != "
                f"sum of sent_per_partner {report.sent_per_partner}",
            ))
        if alive is not None and not alive[report.rank]:
            continue
        accounted = report.stored_chunks + report.discarded_chunks
        if report.dropped_chunks == 0 and report.strategy != "no-dedup":
            # stored + discarded must cover every locally unique chunk
            # (received replicas are counted separately).
            if accounted < report.local_unique_chunks - report.sent_chunks:
                out.append(Violation(
                    "report-sanity", step,
                    f"rank {report.rank}: stored {report.stored_chunks} + "
                    f"discarded {report.discarded_chunks} chunks cannot "
                    f"cover {report.local_unique_chunks} unique chunks",
                ))
        if report.n_chunks < report.local_unique_chunks:
            out.append(Violation(
                "report-sanity", step,
                f"rank {report.rank}: more unique chunks "
                f"({report.local_unique_chunks}) than chunks "
                f"({report.n_chunks})",
            ))
    return out
