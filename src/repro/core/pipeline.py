"""Double-buffered pipelined dump execution (hash → exchange → write).

The strict dump (:mod:`repro.core.dump`) runs its phases as barriers: every
chunk is hashed, then every chunk is shipped, then every chunk is written.
On a multi-core backend that wastes overlap — a rank's store writes are
pure local work that could proceed while its partners are still hashing or
exchanging.  This module restructures the tail of the dump into a pipeline
over fixed-size *chunk batches*, each encoded straight into the partners'
windows (:meth:`repro.simmpi.window.Window.put_view`):

* :func:`pipelined_exchange_write` — the general 2-stage form.  Hashing,
  reduction and planning stay strict (they feed the global layout), but the
  exchange and write phases interleave: each batch of the plan is encoded
  into the partner windows, then this rank's own store commits for
  the same batch run *before the fence*, overlapping other ranks' puts.

* :func:`pipelined_no_dedup_dump` — the 3-stage form for the no-dedup
  strategy.  Under no-dedup the Load vector is ``[n, n, ..., n]`` — fully
  determined by the chunk *count*, which is known from the dataset geometry
  before any byte is hashed.  The allgather and window layout therefore run
  first, and hash → exchange → write proceed per batch: a chunk's
  fingerprint is computed, shipped to all K-1 partners and committed
  locally in one pass, so the three stages of different ranks overlap
  freely.

Both forms are byte-identical to the strict path: puts land at the same
window offsets with the same record bytes, local stores replay the same
``(fingerprint, payload)`` sequence (put accounting is additive), and the
post-fence tail (decode received regions, commit replicas, manifest
exchange) is unchanged.  Dumps the pipeline cannot express — parity
redundancy, a dead node in the liveness snapshot — are rejected by
:func:`pipeline_eligible` and silently fall back to the strict phases in
:mod:`repro.core.dump`.

Observability: each batch records a ``pipeline`` span tagged with
``stage=hash|exchange|write`` and the batch number (trace level "span"),
re-entering the matching trace *phase* so per-phase counters stay
comparable with strict runs.  After the fence the rank sets the
``pipeline_overlap_ratio`` gauge — the fraction of its write-phase seconds
spent *before* the fence, i.e. work the strict path would have serialised
behind the exchange.  The cross-rank view lives in
:func:`repro.obs.analyzer.pipeline_stage_overlap`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.chunking import Dataset, num_chunks
from repro.core.config import DumpConfig, Strategy
from repro.core.fingerprint import Fingerprint, Fingerprinter
from repro.core.offsets import Placement, place
from repro.core.planner import ReplicationPlan
from repro.core.wire import decode_region_unique, encode_records_into, slot_nbytes
from repro.simmpi import collectives
from repro.simmpi.comm import Communicator
from repro.simmpi.window import Window
from repro.storage.local_store import Cluster
from repro.storage.manifest import Manifest

#: Chunks per pipeline batch.  Large enough that the numpy fingerprint
#: kernel and the per-put accounting amortise, small enough that three stages
#: of different ranks genuinely interleave (64 x 4 KiB = 256 KiB per batch
#: and partner).
PIPELINE_BATCH_SLOTS = 64


def pipeline_eligible(
    config: DumpConfig, alive: Optional[Sequence[bool]] = None
) -> bool:
    """True when this dump may take a pipelined path at all.

    Parity redundancy and a liveness snapshot ``alive`` with a dead node
    (``None``: every node alive) fall back to strict phases.  The 2-stage
    form works on the plan, so it does not care how the chunks were cut:
    fixed and content-defined chunking are equally eligible.
    """
    return (
        config.pipelined
        and (alive is None or all(alive))
        and config.redundancy == "replication"
    )


def pipeline_full_eligible(
    config: DumpConfig,
    fingerprints: Optional[Sequence[Fingerprint]],
    alive: Optional[Sequence[bool]] = None,
) -> bool:
    """True when the dump may take the 3-stage hash→exchange→write form.

    Requires no-dedup and fixed-size chunking (the Load vector must be
    known before hashing: the chunk count follows from the segment lengths
    on the fixed grid, but from the content under CDC), raw payloads
    (compression changes wire sizes mid-stream) and no given fingerprint
    column (a given column means the strict path).
    """
    return (
        pipeline_eligible(config, alive)
        and config.strategy is Strategy.NO_DEDUP
        and config.chunking == "fixed"
        and config.compress is None
        and fingerprints is None
    )


def _finish_exchange_write(
    comm: Communicator,
    config: DumpConfig,
    report,
    window: Window,
    placement: Placement,
    digest_size: int,
    node,
    dataset: Dataset,
    order: List[Fingerprint],
    dump_id: int,
    pre_fence_write: float,
) -> None:
    """Post-fence tail shared by both pipelined forms.

    Fences the window, decodes and commits the received replica regions,
    exchanges manifests, and publishes the overlap-ratio gauge.  Identical
    work to the strict path's post-put code.
    """
    capacity = config.wire_payload_capacity
    with comm.trace.phase("exchange"):
        comm.trace.record_chunks(report.sent_chunks, report.sent_bytes)
        comm.trace.annotate(
            sent_chunks=report.sent_chunks, sent_bytes=report.sent_bytes
        )
        window.fence()
        # One decode over the whole window, as the strict path does.
        received_records = placement.layout.window_slots[comm.rank]
        pairs, mults, received_nbytes = decode_region_unique(
            window.local_view(), digest_size, capacity, 0, received_records
        )
        window.free()

    with comm.trace.phase("write"):
        post_start = time.perf_counter()
        node.chunks.put_counted(
            (fp, payload, m) for (fp, payload), m in zip(pairs, mults)
        )
        report.received_chunks += received_records
        report.received_bytes += received_nbytes
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
            rank=comm.rank,
            dump_id=dump_id,
            segment_lengths=dataset.segment_lengths,
            fingerprints=order,
            chunk_size=config.chunk_size,
            compressed=config.compress is not None,
            delta=config.chain_delta,
        )
        blob = manifest.to_bytes()
        node.put_manifest(manifest, blob=blob)
        report.manifest_bytes = len(blob)
        manifest_tag = comm.next_collective_tag()
        for partner in report.partners:
            comm.send(blob, partner, tag=manifest_tag)
        for sender in placement.senders(comm.rank):
            node.put_manifest_blob(comm.recv(sender, tag=manifest_tag))
        post_fence_write = time.perf_counter() - post_start

    if comm.trace.span_enabled:
        total = pre_fence_write + post_fence_write
        comm.trace.metrics.gauge("pipeline_overlap_ratio").set(
            pre_fence_write / total if total > 0 else 0.0
        )


def pipelined_exchange_write(
    comm: Communicator,
    config: DumpConfig,
    cluster: Cluster,
    plan: ReplicationPlan,
    placement: Placement,
    report,
    payload_of: Dict[Fingerprint, bytes],
    payload_size: Dict[Fingerprint, int],
    digest_size: int,
    slot: int,
    dataset: Dataset,
    order: List[Fingerprint],
    dump_id: int,
    enter_phase: Callable[[str], None],
) -> None:
    """2-stage pipeline: exchange and write interleave over chunk batches.

    Replaces the strict dump's phases 4 and 5 for an already-planned dump.
    Per batch, each partner's slice of the plan is encoded into that
    partner's window at the strict path's offsets, then
    this rank's own store commits the matching slice of ``plan.store_fps``
    — before the fence, overlapping the other ranks' exchange.
    """
    rank = comm.rank
    capacity = config.wire_payload_capacity
    node = cluster.storage_for(rank)
    layout = placement.layout
    partners = report.partners
    enter_phase("exchange")
    enter_phase("write")

    with comm.trace.phase("exchange"):
        window = Window.create(comm, layout.window_slots[rank] * slot)

    # Whole-plan accounting up front (identical to the strict totals).
    report.sent_per_partner = [len(fps) for fps in plan.partner_chunks]
    report.sent_chunks = sum(report.sent_per_partner)
    report.sent_bytes = sum(
        sum(map(payload_size.__getitem__, fps)) for fps in plan.partner_chunks
    )

    bases = [layout.offset_of(rank, target) for target in partners]
    batch = PIPELINE_BATCH_SLOTS
    rows = max(
        [len(plan.store_fps)] + [len(fps) for fps in plan.partner_chunks],
        default=0,
    )
    pre_fence_write = 0.0

    for bi, lo in enumerate(range(0, rows, batch)):
        hi = min(lo + batch, rows)
        with comm.trace.phase("exchange"):
            with comm.trace.span("pipeline", stage="exchange", batch=bi):
                for p, fps in enumerate(plan.partner_chunks):
                    seg = fps[lo:hi]
                    if not seg:
                        continue
                    encode_records_into(
                        window.put_view(
                            partners[p], (bases[p] + lo) * slot, len(seg) * slot
                        ),
                        zip(seg, map(payload_of.__getitem__, seg)),
                        digest_size,
                        capacity,
                    )
        with comm.trace.phase("write"):
            start = time.perf_counter()
            with comm.trace.span("pipeline", stage="write", batch=bi):
                seg = plan.store_fps[lo:hi]
                if seg:
                    node.chunks.put_many(zip(seg, map(payload_of.__getitem__, seg)))
                    report.stored_chunks += len(seg)
                    report.stored_bytes += sum(
                        map(payload_size.__getitem__, seg)
                    )
            pre_fence_write += time.perf_counter() - start

    _finish_exchange_write(
        comm, config, report, window, placement, digest_size, node, dataset,
        order, dump_id, pre_fence_write,
    )


def pipelined_no_dedup_dump(
    comm: Communicator,
    dataset: Dataset,
    config: DumpConfig,
    cluster: Cluster,
    dump_id: int,
    report,
    enter_phase: Callable[[str], None],
    fingerprinter: Fingerprinter,
):
    """3-stage pipeline for the no-dedup strategy: hash → exchange → write
    per chunk batch, with the window layout agreed *before* hashing.

    No-dedup stores and replicates every chunk occurrence, so each rank's
    Load vector is ``[n] * K`` with ``n`` the chunk count — derivable from
    the dataset geometry alone.  The allgather therefore runs first; the
    plan needs no materialisation at all (every batch goes to every partner
    and to the local store at monotonically increasing offsets).
    """
    rank, world = comm.rank, comm.size
    k_eff = config.effective_k(world)
    nparts = k_eff - 1
    chunk_size = config.chunk_size
    seg_views = [dataset.segment(i) for i in range(dataset.num_segments)]
    n = sum(num_chunks(len(view), chunk_size) for view in seg_views)
    report.load = [n] * k_eff

    # Fire the strict hook sequence (hash precedes allgather in the strict
    # path) so failure-injection seams trigger at the same phase entries.
    enter_phase("hash")
    with comm.trace.phase("allgather"):
        enter_phase("allgather")
        send_load = collectives.allgather(comm, report.load)

    with comm.trace.span("calc-off"):
        placement = place(send_load, config, cluster.rank_to_node)
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
    digest_size = fingerprinter.digest_size
    capacity = config.wire_payload_capacity
    node = cluster.storage_for(rank)
    enter_phase("exchange")
    enter_phase("write")

    with comm.trace.phase("exchange"):
        window = Window.create(comm, layout.window_slots[rank] * slot)
    bases = [layout.offset_of(rank, target) for target in report.partners]
    batch = PIPELINE_BATCH_SLOTS

    payload_of: Dict[Fingerprint, bytes] = {}
    order: List[Fingerprint] = []
    total_bytes = 0
    pre_fence_write = 0.0
    done = 0  # global chunk offset across segments
    bi = 0
    for view in seg_views:
        seg_chunks = num_chunks(len(view), chunk_size)
        for lo in range(0, seg_chunks, batch):
            hi = min(lo + batch, seg_chunks)
            sub = view[lo * chunk_size : min(hi * chunk_size, len(view))]
            with comm.trace.phase("hash"):
                with comm.trace.span("pipeline", stage="hash", batch=bi):
                    fps = fingerprinter.fingerprint_segment(sub, chunk_size)
            # First-occurrence payload per fingerprint, exactly like the
            # strict LocalIndex (duplicate occurrences replay the first
            # copy's bytes; identical content for a collision-free hash).
            pairs: List[Tuple[Fingerprint, bytes]] = []
            for j, fp in enumerate(fps):
                payload = payload_of.get(fp)
                if payload is None:
                    payload = bytes(sub[j * chunk_size : (j + 1) * chunk_size])
                    payload_of[fp] = payload
                pairs.append((fp, payload))
                total_bytes += len(payload)
            order.extend(fps)

            with comm.trace.phase("exchange"):
                with comm.trace.span("pipeline", stage="exchange", batch=bi):
                    if pairs and nparts:
                        # Every partner receives the same records under
                        # no-dedup: encode into the first partner's window,
                        # copy that region into the other K-2.
                        regions = [
                            window.put_view(
                                target, (bases[p] + done) * slot, len(pairs) * slot
                            )
                            for p, target in enumerate(report.partners)
                        ]
                        encode_records_into(
                            regions[0], pairs, digest_size, capacity
                        )
                        for region in regions[1:]:
                            region[:] = regions[0]
            with comm.trace.phase("write"):
                start = time.perf_counter()
                with comm.trace.span("pipeline", stage="write", batch=bi):
                    if pairs:
                        node.chunks.put_many(pairs)
                pre_fence_write += time.perf_counter() - start
            done += len(fps)
            bi += 1

    # Whole-dump accounting, identical to the strict path's totals.
    with comm.trace.phase("hash"):
        comm.trace.record_chunks(n, dataset.nbytes)
        comm.trace.annotate(
            chunks=n, unique_chunks=len(payload_of), dataset_bytes=dataset.nbytes
        )
    if comm.trace.span_enabled:
        comm.trace.metrics.histogram("chunk_size_bytes").observe_many(
            len(p) for p in payload_of.values()
        )
        if dataset.nbytes > 0:
            unique_bytes = sum(map(len, payload_of.values()))
            comm.trace.metrics.gauge("dedup_ratio").set(
                1.0 - unique_bytes / dataset.nbytes
            )
    report.n_chunks = n
    report.dataset_bytes = dataset.nbytes
    report.hashed_bytes = fingerprinter.hashed_bytes
    report.local_unique_chunks = len(payload_of)
    report.local_unique_bytes = sum(map(len, payload_of.values()))
    report.sent_per_partner = [n] * nparts
    report.sent_chunks = n * nparts
    report.sent_bytes = total_bytes * nparts
    report.stored_chunks = n
    report.stored_bytes = total_bytes

    _finish_exchange_write(
        comm, config, report, window, placement, digest_size, node, dataset,
        order, dump_id, pre_fence_write,
    )
    comm.barrier()
    return report
