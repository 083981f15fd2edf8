"""Restore: reassemble a rank's dataset from the cluster after (possible)
failures.

This is the consumer side of checkpoint-restart.  The manifest (replicated
to partners at dump time) gives the segment structure and ordered
fingerprint list; each chunk is fetched from the rank's own node when it
survived, else from any live replica holder.  Restoration succeeding after
K-1 node failures is the end-to-end guarantee every strategy must provide —
the integration suite drives this path for all of them.

Every source is planned in one columnar pass
(:func:`repro.core.restore_plan.plan_restore`).  The frames are read with
one ``get_many`` per source, concatenated in source order and put in
manifest order with one gather; segments are cut straight from that chunk
list.  The naive per-chunk loop this must match, bytes and report field
for field, is ``tests/core/reference.py``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Optional

from repro.core.chunking import Dataset
from repro.core.restore_plan import (
    RECONSTRUCT,
    cut_segments,
    dedup_fingerprints,
    plan_restore,
)
from repro.storage.local_store import Cluster, StorageError


@dataclass
class RestoreReport:
    """Accounting of one dataset restore."""

    rank: int
    dump_id: int
    total_bytes: int = 0
    local_chunks: int = 0
    remote_chunks: int = 0
    remote_bytes: int = 0
    decoded_chunks: int = 0  # rebuilt from erasure-coded stripes
    source_nodes: Dict[int, int] = field(default_factory=dict)  # node -> chunks served


def _span(trace, name, **attrs):
    """A trace span when a trace was provided, else a no-op context."""
    return trace.span(name, **attrs) if trace is not None else nullcontext()


def restore_dataset(
    cluster: Cluster,
    rank: int,
    dump_id: int = 0,
    trace=None,
) -> "tuple[Dataset, RestoreReport]":
    """Rebuild rank ``rank``'s dataset for ``dump_id`` from live nodes.

    Pass a :class:`~repro.simmpi.trace.Trace` to record
    ``restore-plan``/``restore-request``/``restore-reassemble`` spans and
    the ``restore_locality`` gauge (fraction of restored frame bytes served
    by the rank's own node).

    Raises :class:`~repro.storage.local_store.StorageError` if the manifest
    or any referenced chunk has no live holder, and
    :class:`~repro.chain.errors.ChainBrokenError` if ``dump_id`` is a chain
    *delta* dump — deltas hold one epoch's dirty chunks only and are never
    independently restorable; resolve the epoch through
    :class:`repro.chain.ChainManager` instead.
    """
    manifest = cluster.find_manifest(rank, dump_id)
    if manifest.delta:
        from repro.chain.errors import ChainBrokenError

        raise ChainBrokenError(
            f"dump {dump_id} of rank {rank} is a chain delta "
            f"(dirty chunks only) — restore its epoch through the chain "
            f"manager, not restore_dataset",
        )
    return restore_from_manifest(cluster, rank, manifest, trace=trace)


def restore_from_manifest(
    cluster: Cluster,
    rank: int,
    manifest,
    trace=None,
) -> "tuple[Dataset, RestoreReport]":
    """Rebuild a dataset from an explicit (possibly synthetic) manifest.

    The chain layer resolves an epoch's newest-wins chunk set into a
    synthetic full manifest and feeds it through here, reusing the whole
    planning/fetch/reassembly path without the manifest ever touching a
    store.  ``manifest.delta`` is ignored — the caller vouches that the
    fingerprint list describes a complete dataset.
    """
    dump_id = manifest.dump_id
    report = RestoreReport(rank=rank, dump_id=dump_id)
    if manifest.compressed:
        from repro.compress.codecs import decode_auto
    else:
        decode_auto = None

    with _span(trace, "restore-plan", rank=rank, dump_id=dump_id):
        plan = plan_restore(cluster, rank, manifest, allow_reconstruct=True)
        if trace is not None:
            trace.annotate(
                chunks=len(manifest.fingerprints),
                distinct_chunks=len(plan.fps),
            )

    local_bytes = 0
    frames = []
    with _span(trace, "restore-request", rank=rank):
        fps, runs, gather = plan.by_source()
        for source, start, stop in runs:
            wanted = fps[start:stop]
            if source == RECONSTRUCT:
                # Last resort: erasure-coded redundancy (parity mode) — decode
                # each chunk from its stripe's survivors.
                from repro.erasure.ec_dump import reconstruct_chunk

                got = [reconstruct_chunk(cluster, fp, dump_id) for fp in wanted]
                report.decoded_chunks += len(got)
            else:
                got = cluster.nodes[source].chunks.get_many(wanted)
                report.source_nodes[source] = len(got)
            frames += got
            if source == plan.own_node_id:
                local_bytes = sum(map(len, got))
                report.local_chunks = len(got)
            else:
                report.remote_bytes += sum(map(len, got))
                report.remote_chunks += len(got)
        if trace is not None and trace.span_enabled:
            trace.annotate(
                local_chunks=report.local_chunks,
                remote_chunks=report.remote_chunks,
                local_bytes=local_bytes,
                remote_bytes=report.remote_bytes,
            )
            frame_bytes = local_bytes + report.remote_bytes
            trace.metrics.gauge("restore_locality").set(
                local_bytes / frame_bytes if frame_bytes else 1.0
            )

    with _span(trace, "restore-reassemble", rank=rank):
        if decode_auto is not None:
            frames = list(map(decode_auto, frames))
        chunks = list(map(frames.__getitem__, gather.tolist()))
        segments = cut_segments(chunks, manifest.segment_lengths, rank)
        report.total_bytes = sum(manifest.segment_lengths)
        if trace is not None:
            trace.annotate(total_bytes=report.total_bytes)
    return Dataset(segments), report


def verify_restorable(
    cluster: Cluster, rank: int, dump_id: int = 0
) -> Optional[str]:
    """Cheap check (no chunk movement): None if restorable, else the reason.

    Consistent with :func:`restore_dataset`: a chunk with no live replica
    still counts as restorable when its erasure-coded stripe (parity
    redundancy mode) has enough surviving shards to decode.  Holders come
    from one :meth:`~repro.storage.local_store.Cluster.holder_column` sweep;
    the reason names the first unrestorable chunk in manifest order.
    """
    from repro.erasure.ec_dump import find_stripe

    try:
        manifest = cluster.find_manifest(rank, dump_id)
    except StorageError as exc:
        return str(exc)
    distinct, _index = dedup_fingerprints(manifest.fingerprints)
    unheld = cluster.holder_column(distinct).replicas() == 0
    for fp in compress(distinct, unheld.tolist()):
        stripe = find_stripe(cluster, fp, dump_id)
        if stripe is None or stripe.margin < 0:
            return f"chunk {fp.hex()[:12]}... has no live holder or stripe"
    return None
