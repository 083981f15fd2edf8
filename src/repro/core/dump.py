"""The collective write primitive: ``DUMP_OUTPUT(buffer, K)`` (Algorithm 1).

This is the SPMD entry point of the library.  All ranks call
:func:`dump_output` collectively; afterwards every rank's dataset is stored
on its node and replicated toward the configured factor, and a
:class:`DumpReport` describes exactly what moved where — the raw material
for every figure in the evaluation.

Phases (each bracketed by a trace phase so the cost model can price them):

1. ``hash``       — chunk + fingerprint + local dedup (phase 1 dedup).
2. ``reduction``  — ALLREDUCE(HMERGE) global view (coll-dedup only).
3. ``allgather``  — gather every rank's Load vector (single-sided planning
                    needs the full SendLoad matrix under every strategy).
4. ``exchange``   — one-sided puts into partner windows at Algorithm 3
                    offsets, closed by a fence.
5. ``write``      — commit designated + received chunks to local storage,
                    replicate the (tiny) manifest to partners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.chunking import Dataset
from repro.core.config import DumpConfig, Strategy
from repro.core.fingerprint import Fingerprint, Fingerprinter
from repro.core.global_dedup import build_global_view
from repro.core.hmerge import GlobalView
from repro.core.local_dedup import local_dedup_batched
from repro.core.offsets import place
from repro.core.pipeline import (
    pipeline_eligible,
    pipeline_full_eligible,
    pipelined_exchange_write,
    pipelined_no_dedup_dump,
)
from repro.core.planner import ReplicationPlan, build_plan
from repro.core.wire import decode_region_unique, encode_records_into, slot_nbytes
from repro.simmpi import collectives
from repro.simmpi.comm import Communicator
from repro.simmpi.window import Window
from repro.storage.local_store import Cluster, StorageError
from repro.storage.manifest import Manifest


@dataclass
class DumpReport:
    """Per-rank outcome of one collective dump.

    All byte counts are *logical* (pre store-side dedup); chunk counts refer
    to chunk records.  ``sent_per_partner[j]`` is what went to the partner
    at distance ``j+1`` in the agreed order.
    """

    rank: int
    strategy: str
    k: int
    n_chunks: int = 0
    dataset_bytes: int = 0
    hashed_bytes: int = 0
    local_unique_chunks: int = 0
    local_unique_bytes: int = 0
    view_entries: int = 0
    view_bytes: int = 0
    reduction_rounds: int = 0
    discarded_chunks: int = 0
    stored_chunks: int = 0
    stored_bytes: int = 0
    received_chunks: int = 0
    received_bytes: int = 0
    sent_chunks: int = 0
    sent_bytes: int = 0
    sent_per_partner: List[int] = field(default_factory=list)
    load: List[int] = field(default_factory=list)
    shuffle_position: int = 0
    partners: List[int] = field(default_factory=list)
    manifest_bytes: int = 0
    parity_stripes: int = 0
    #: True when the dump planned around dead nodes (at least one node down
    #: in the liveness snapshot taken at dump start)
    degraded: bool = False
    #: chunk records this rank could not commit because its node was dead at
    #: write time (it died after the liveness snapshot), and their payload
    #: bytes — the honest accounting of what the failure cost
    dropped_chunks: int = 0
    dropped_bytes: int = 0

    @property
    def total_stored_bytes(self) -> int:
        """Everything this rank's node must write for this rank: own stored
        chunks plus replicas received from partners."""
        return self.stored_bytes + self.received_bytes

    @property
    def replicated_bytes(self) -> int:
        """The paper's 'amount of replicated data per process': what this
        rank ships to its partners."""
        return self.sent_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "rank": self.rank,
            "strategy": self.strategy,
            "k": self.k,
            "n_chunks": self.n_chunks,
            "dataset_bytes": self.dataset_bytes,
            "local_unique_chunks": self.local_unique_chunks,
            "local_unique_bytes": self.local_unique_bytes,
            "stored_bytes": self.stored_bytes,
            "received_bytes": self.received_bytes,
            "sent_bytes": self.sent_bytes,
            "load": list(self.load),
        }


def chunk_boundaries(dataset: Dataset, config: DumpConfig):
    """Per-segment content-defined cut points of ``dataset`` under
    ``config``, or ``None`` on the fixed grid."""
    if config.chunking != "cdc":
        return None
    chunker = config.make_chunker()
    return [
        chunker.boundaries(bytes(dataset.segment(i)))
        for i in range(dataset.num_segments)
    ]


def dump_output(
    comm: Communicator,
    dataset: Dataset,
    config: DumpConfig,
    cluster: Cluster,
    dump_id: int = 0,
    fingerprints: Optional[Sequence[Fingerprint]] = None,
    phase_hook: Optional[Callable[[str, int], None]] = None,
) -> DumpReport:
    """Collectively dump ``dataset`` with replication factor ``config.K``.

    Parameters
    ----------
    comm:
        This rank's communicator; all ranks must call with consistent
        ``config`` and ``dump_id``.
    dataset:
        The rank-local dataset (the paper's possibly non-contiguous
        ``buffer``).
    cluster:
        Storage cluster to commit chunks/manifests to.  For faithful
        no-dedup accounting create it with ``dedup=False``.  Dead nodes are
        planned around, never raised on: a rank whose node is dead ships
        its data to live partners, and a node that dies mid-dump has its
        commits dropped (``report.degraded`` / ``dropped_chunks``; a
        :func:`repro.repair.repair_cluster` restores K).  Parity redundancy
        tolerates no dead node and raises :class:`StorageError` on every
        rank.
    fingerprints:
        Optional fixed-grid fingerprint column of ``dataset``, one per
        chunk, which the caller already holds: the hash phase then hashes
        nothing (``report.hashed_bytes == 0``).  The caller vouches for it;
        :meth:`repro.chain.ChainManager.chain_dump` passes a delta's, which
        it diffed before the collective, so a delta epoch is hashed once.
        A column whose length is not the dataset's chunk count raises
        ``ValueError``, and so does any column under ``chunking="cdc"``
        (content-defined boundaries are not the grid it names).
    phase_hook:
        Optional callback invoked as ``hook(phase_name, rank)`` when this
        rank enters each trace phase — the failure-injection seam
        (:meth:`repro.storage.failures.FailureInjector.mid_dump_hook`) and a
        generic progress probe.
    """
    level = config.resolve_trace_level()
    if level is not None:
        comm.trace.configure(level)
    with comm.trace.span(
        "dump",
        dump_id=dump_id,
        strategy=config.strategy.value,
        k=config.effective_k(comm.size),
    ):
        return _dump_output_impl(
            comm, dataset, config, cluster, dump_id, fingerprints, phase_hook,
        )


def _dump_output_impl(
    comm: Communicator,
    dataset: Dataset,
    config: DumpConfig,
    cluster: Cluster,
    dump_id: int,
    fingerprints: Optional[Sequence[Fingerprint]],
    phase_hook: Optional[Callable[[str, int], None]],
) -> DumpReport:
    rank, world = comm.rank, comm.size
    k_eff = config.effective_k(world)
    strategy = config.strategy
    fingerprinter = Fingerprinter(config.effective_hash_name)
    report = DumpReport(rank=rank, strategy=strategy.value, k=k_eff)

    # Agree on one liveness snapshot before planning.  Rank 0's view wins
    # (broadcast), so a node dying *during* the dump cannot split the ranks
    # between two layouts — its rank keeps participating under the agreed
    # layout and the write phase drops its commits.  With every node alive
    # the plan is the healthy one; a dead node is planned around.
    snapshot = [cluster.node_of(r).alive for r in range(world)]
    alive: List[bool] = collectives.bcast(comm, snapshot)
    report.degraded = not all(alive)
    comm.trace.annotate(degraded=report.degraded)
    if report.degraded and config.redundancy == "parity":
        dead = sorted({cluster.rank_to_node[r] for r, a in enumerate(alive) if not a})
        raise StorageError(
            f"parity redundancy tolerates no dead node (dead nodes: {dead}): "
            "stripe groups assume every member rank can commit shards, and "
            "they are not yet planned over live ranks"
        )

    def enter_phase(name: str) -> None:
        if phase_hook is not None:
            phase_hook(name, rank)

    # 3-stage pipeline: under no-dedup the Load vector is known from the
    # chunk count alone, so the window layout is agreed first and hash,
    # exchange and write run per batch (see repro.core.pipeline).
    if pipeline_full_eligible(config, fingerprints, alive):
        return pipelined_no_dedup_dump(
            comm, dataset, config, cluster, dump_id, report, enter_phase,
            fingerprinter,
        )

    with comm.trace.phase("hash"):
        enter_phase("hash")
        # Phase 1: chunk, fingerprint, local dedup.  Where the chunk
        # boundaries come from is the only place the dump looks at
        # ``chunking``; everything downstream works on the LocalIndex.
        boundaries = chunk_boundaries(dataset, config)
        index = local_dedup_batched(
            dataset,
            fingerprinter,
            config.chunk_size,
            fingerprints=fingerprints,
            boundaries=boundaries,
        )
        comm.trace.record_chunks(index.total_chunks, dataset.nbytes)
        comm.trace.annotate(
            chunks=index.total_chunks,
            unique_chunks=index.unique_chunks,
            dataset_bytes=dataset.nbytes,
        )

    # Optional compression: payloads become self-describing frames; the
    # fingerprint (of the *uncompressed* chunk) remains the identity.
    if config.compress is not None:
        from repro.compress.codecs import get_codec

        codec = get_codec(config.compress)
        with comm.trace.phase("compress"):
            payload_of = {fp: codec.encode(raw) for fp, raw in index.unique.items()}
        payload_size = {fp: len(p) for fp, p in payload_of.items()}
    else:
        payload_of, payload_size = index.unique, index.chunk_sizes
    if comm.trace.span_enabled:
        comm.trace.metrics.histogram("chunk_size_bytes").observe_many(
            payload_size.values()
        )
        if dataset.nbytes > 0:
            comm.trace.metrics.gauge("dedup_ratio").set(
                1.0 - index.unique_bytes / dataset.nbytes
            )
    report.n_chunks = index.total_chunks
    report.dataset_bytes = dataset.nbytes
    report.hashed_bytes = fingerprinter.hashed_bytes
    report.local_unique_chunks = index.unique_chunks
    report.local_unique_bytes = index.unique_bytes

    # Phase 2: collective reduction (coll-dedup only).  Designation, top-up
    # coverage and the shuffle all place against the cluster's rank->node
    # map: a replica on its sender's node does not survive that node.
    node_of = cluster.rank_to_node
    view: Optional[GlobalView] = None
    if strategy is Strategy.COLL_DEDUP:
        with comm.trace.phase("reduction") as counters:
            enter_phase("reduction")
            reduction_comm = comm
            if config.dedup_domain_size is not None:
                # Dedup domains: reduce within groups of consecutive ranks
                # (designated-rank ids stay global via world_rank).
                reduction_comm = comm.split(rank // config.dedup_domain_size)
            view, _table = build_global_view(
                reduction_comm, index.counts.keys(), k_eff, config.f_threshold,
                node_of=node_of,
            )
            report.reduction_rounds = counters.rounds
            comm.trace.annotate(
                view_entries=len(view), rounds=counters.rounds
            )
        report.view_entries = len(view)
        report.view_bytes = view.nbytes_estimate()

    # Plan: what to store, discard, and send to which partner slot.
    parity_mode = config.redundancy == "parity"
    plan = build_plan(
        rank,
        index,
        view,
        k_eff,
        world,
        dedup_local=strategy is not Strategy.NO_DEDUP,
        node_of=node_of,
        topup=not parity_mode,
        alive=alive,
    )
    report.discarded_chunks = len(plan.discarded_fps)
    report.load = plan.load

    # Phase 3: gather the SendLoad matrix (needed by every strategy for the
    # single-sided planning; coll-dedup additionally shuffles on it).
    with comm.trace.phase("allgather"):
        enter_phase("allgather")
        send_load = collectives.allgather(comm, plan.load)

    with comm.trace.span("calc-off"):
        placement = place(send_load, config, node_of, alive)
        layout = placement.layout
        report.shuffle_position = placement.positions[rank]
        report.partners = placement.partners[rank]
        comm.trace.annotate(
            position=report.shuffle_position,
            window_slots=layout.window_slots[rank],
        )
    if comm.trace.span_enabled:
        comm.trace.metrics.gauge("window_slots").set(layout.window_slots[rank])
    slot = slot_nbytes(fingerprinter.digest_size, config.wire_payload_capacity)

    # 2-stage pipeline: exchange and write interleave over chunk batches;
    # everything up to the layout stayed strict (see repro.core.pipeline).
    if pipeline_eligible(config, alive):
        pipelined_exchange_write(
            comm, config, cluster, plan, placement, report, payload_of,
            payload_size, fingerprinter.digest_size, slot, dataset,
            index.order, dump_id, enter_phase,
        )
        comm.barrier()
        return report

    # Phase 4: one-sided exchange.  Each partner's whole region is encoded
    # straight into that partner's window at its Algorithm 3 offset (one
    # accounting update + one trace record per partner, no staging buffer).
    with comm.trace.phase("exchange"):
        enter_phase("exchange")
        window = Window.create(comm, layout.window_slots[rank] * slot)
        capacity = config.wire_payload_capacity
        digest_size = fingerprinter.digest_size
        # The last region encoded: its fingerprints, its view, its payload
        # bytes.  The baseline strategies send every partner the same list,
        # and a region equal to the last one is copied, not encoded again.
        encoded = None
        for p, fps in enumerate(plan.partner_chunks):
            if p >= len(report.partners):
                # Dead nodes leave fewer live partners than slots; the
                # planner kept these slots empty.
                if fps:
                    raise RuntimeError(
                        f"rank {rank}: planned chunks for partner slot "
                        f"{p + 1} but only {len(report.partners)} live "
                        f"partners exist"
                    )
                report.sent_per_partner.append(0)
                continue
            target = report.partners[p]
            count = len(fps)
            if count:
                region = window.put_view(
                    target, layout.offset_of(rank, target) * slot, count * slot
                )
                if encoded is not None and encoded[0] == fps:
                    region[:] = encoded[1]
                else:
                    encode_records_into(
                        region,
                        zip(fps, map(payload_of.__getitem__, fps)),
                        digest_size,
                        capacity,
                    )
                    encoded = fps, region, sum(map(payload_size.__getitem__, fps))
                report.sent_bytes += encoded[2]
            report.sent_per_partner.append(count)
            report.sent_chunks += count
        comm.trace.record_chunks(report.sent_chunks, report.sent_bytes)
        comm.trace.annotate(
            sent_chunks=report.sent_chunks, sent_bytes=report.sent_bytes
        )
        window.fence()
        # The senders' regions tile the window, so one decode over all of it
        # collapses repeats across senders too and materialises one payload
        # per distinct fingerprint, read in place out of the window.
        received_records = layout.window_slots[rank]
        pairs, mults, received_nbytes = decode_region_unique(
            window.local_view(), digest_size, capacity, 0, received_records
        )
        window.free()

    # Phase 5: commit to local storage and replicate the manifest.
    with comm.trace.phase("write"):
        enter_phase("write")
        # Re-check liveness at commit time: a node that died after the
        # liveness snapshot (mid-dump) kept its rank in the collective, but
        # nothing may land on its storage — drop and account.
        node = cluster.node_of(rank)
        commit_ok = node.alive
        store_fps = plan.store_fps
        store_nbytes = sum(map(payload_size.__getitem__, store_fps))
        if commit_ok:
            node.chunks.put_many(
                zip(store_fps, map(payload_of.__getitem__, store_fps))
            )
            report.stored_chunks = len(store_fps)
            report.stored_bytes = store_nbytes
            node.chunks.put_counted(
                (fp, payload, m) for (fp, payload), m in zip(pairs, mults)
            )
            report.received_chunks = received_records
            report.received_bytes = received_nbytes
        else:
            report.dropped_chunks = len(plan.store_fps) + received_records
            report.dropped_bytes = store_nbytes + received_nbytes
        comm.trace.record_chunks(
            report.stored_chunks + report.received_chunks,
            report.stored_bytes + report.received_bytes,
        )
        comm.trace.annotate(
            stored_chunks=report.stored_chunks,
            received_chunks=report.received_chunks,
            dropped_chunks=report.dropped_chunks,
        )

        manifest = Manifest(
            rank=rank,
            dump_id=dump_id,
            segment_lengths=dataset.segment_lengths,
            fingerprints=index.order,
            chunk_size=config.chunk_size,
            compressed=config.compress is not None,
            delta=config.chain_delta,
        )
        blob = manifest.to_bytes()
        if commit_ok:
            node.put_manifest(manifest, blob=blob)
        report.manifest_bytes = len(blob)
        manifest_tag = comm.next_collective_tag()
        for partner in report.partners:
            comm.send(blob, partner, tag=manifest_tag)
        for sender in placement.senders(rank):
            incoming_blob = comm.recv(sender, tag=manifest_tag)
            if commit_ok:
                node.put_manifest_blob(incoming_blob)

    # Parity redundancy (extension): cross-rank stripe groups with rotating
    # parity holders replace the replica top-ups (see repro.erasure.ec_dump).
    if parity_mode:
        from repro.erasure.ec_dump import ship_parity

        with comm.trace.phase("parity"):
            ship_parity(
                comm, cluster, config, plan, payload_of, placement, dump_id,
                report,
            )
    comm.barrier()
    return report
