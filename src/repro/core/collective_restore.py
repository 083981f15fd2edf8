"""``LOAD_INPUT``: the collective restart counterpart of ``DUMP_OUTPUT``.

:func:`repro.core.restore.restore_dataset` restores one rank through the
cluster's lookup service — fine for per-rank tooling, but a real restart is
*collective*: every rank rebuilds its dataset simultaneously, and chunks a
rank discarded at dump time (or lost to node failures) must be pulled from
partner nodes over the network.  This module implements that as a two-round
collective:

1. **request round** — every rank resolves its manifest (own node first,
   manifest replicas otherwise), determines which fingerprints have no
   local copy, assigns each to the least-loaded live holder node (the same
   deterministic policy as ``restore_dataset``, so no coordination is
   needed and a mass restart spreads its pulls across every surviving
   holder), and ships per-holder request lists via an all-to-all.
2. **reply round** — every rank serves the chunk payloads it was asked
   for, again via an all-to-all; requesters reassemble their segments.

The work is batched: one vectorised source plan
(:func:`repro.core.restore_plan.plan_restore`), request lists coalesced
into per-holder runs and shipped as packed ``RRQ1``/``RRP1`` wire blobs,
``get_many`` batch reads on the serving side, and segment reassembly that
cuts the chunk list directly.  The naive source-resolution loop it must
agree with is ``tests/core/reference.py``.

The per-rank traffic this generates is exactly the restart cost the paper's
local-storage design promises to keep low (most chunks are local), and the
report makes it measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.chunking import Dataset
from repro.core.config import DumpConfig
from repro.core.fingerprint import Fingerprint
from repro.core.restore_plan import cut_segments, plan_restore
from repro.core.wire import (
    decode_restore_reply,
    decode_restore_request,
    encode_restore_reply,
    encode_restore_request,
)
from repro.chain.errors import ChainBrokenError
from repro.simmpi import collectives
from repro.simmpi.comm import Communicator
from repro.storage.local_store import Cluster, StorageError


def _reject_chain_delta(manifest, rank: int, dump_id: int) -> None:
    """Chain deltas hold one epoch's dirty chunks only — reassembling one
    as a full dataset is silent corruption, so fail typed instead.  Raised
    inside the planning try-block, the error joins the collective agreement
    round and aborts every rank consistently."""
    if manifest.delta:
        raise ChainBrokenError(
            f"dump {dump_id} of rank {rank} is a chain delta — restore its "
            f"epoch through the chain manager, not a collective load",
        )


@dataclass
class CollectiveRestoreReport:
    """Per-rank accounting of one collective restore."""

    rank: int
    dump_id: int
    total_bytes: int = 0
    local_chunks: int = 0
    pulled_chunks: int = 0
    pulled_bytes: int = 0
    served_chunks: int = 0
    served_bytes: int = 0
    pulled_from: Dict[int, int] = field(default_factory=dict)  # rank -> chunks


def _serving_ranks(cluster: Cluster, world: int) -> Dict[int, int]:
    """node id -> the rank that serves that node's chunks.

    The lowest rank mapped to each node — deterministic, so every rank
    derives the same table without coordination.
    """
    serving: Dict[int, int] = {}
    for peer in range(world):
        serving.setdefault(cluster.rank_to_node[peer], peer)
    return serving


def _record_locality(comm: Communicator, local_bytes: int, pulled_bytes: int) -> None:
    """Observe the local-bytes fraction of this restore (span level only)."""
    if not comm.trace.span_enabled:
        return
    frame_bytes = local_bytes + pulled_bytes
    comm.trace.metrics.gauge("restore_locality").set(
        local_bytes / frame_bytes if frame_bytes else 1.0
    )


def load_input(
    comm: Communicator,
    cluster: Cluster,
    config: DumpConfig,
    dump_id: int = 0,
) -> Tuple[Dataset, CollectiveRestoreReport]:
    """Collectively restore every rank's dataset for ``dump_id``.

    All ranks must call this together (two all-to-all rounds).  Each rank
    returns its own reassembled :class:`Dataset` plus a traffic report.
    ``config`` mirrors :func:`~repro.core.dump.dump_output`'s call shape;
    everything the restore needs (chunk size, compression, segment
    structure) is read from the manifest.

    Raises :class:`~repro.storage.local_store.StorageError` on any rank
    whose manifest or chunks are unrecoverable (which aborts the world —
    restart is all-or-nothing, like the paper's checkpoint semantics), and
    :class:`~repro.chain.errors.ChainBrokenError` when ``dump_id`` is a
    chain *delta* dump (not independently restorable — resolve the epoch
    through :class:`repro.chain.ChainManager`).
    """
    with comm.trace.span("restore", dump_id=dump_id):
        rank, world = comm.rank, comm.size
        report = CollectiveRestoreReport(rank=rank, dump_id=dump_id)

        # Plan every distinct fingerprint's source in one vectorised pass.
        # Failures here (lost manifest/chunk) are detected locally but must
        # abort *collectively*: the agreement round keeps peers from blocking
        # in an all-to-all a failed rank will never join.
        plan = None
        manifest = None
        serving = _serving_ranks(cluster, world)
        error = ""
        chain_broken = False
        with comm.trace.phase("restore-plan"):
            try:
                manifest = cluster.find_manifest(rank, dump_id)
                _reject_chain_delta(manifest, rank, dump_id)
                plan = plan_restore(
                    cluster,
                    rank,
                    manifest,
                    allow_reconstruct=False,
                    eligible_nodes=set(serving),
                )
            except StorageError as exc:
                error = str(exc)
            except ChainBrokenError as exc:
                error = str(exc)
                chain_broken = True
            statuses = collectives.allgather(comm, error)
            failed = [s for s in statuses if s]
            if failed:
                message = (
                    f"collective restore of dump {dump_id} aborted; "
                    f"{len(failed)} rank(s) unrecoverable: {failed[0]}"
                )
                if chain_broken:
                    raise ChainBrokenError(message)
                raise StorageError(message)
            report.local_chunks = int(np.count_nonzero(plan.local))
            if comm.trace.span_enabled:
                comm.trace.annotate(
                    chunks=len(manifest.fingerprints),
                    distinct_chunks=len(plan.fps),
                    local_chunks=report.local_chunks,
                )

        # Round 1: per-holder request lists as packed RRQ1 blobs.  Each list
        # keeps first-occurrence order — the contiguous runs the holder's store
        # committed them in — so the reply round reads sequentially.
        fps, runs, gather = plan.by_source()
        requests = [b""] * world
        with comm.trace.phase("restore-request"):
            for source, start, stop in runs:
                if source != plan.own_node_id:
                    requests[serving[source]] = encode_restore_request(fps[start:stop])
            incoming_requests = collectives.alltoall(comm, requests)
            comm.trace.record_chunks(
                len(fps) - report.local_chunks, sum(map(len, requests))
            )

        # Round 2: serve what we were asked, via one batched store read.  The
        # liveness check is hoisted out of the loop: serving from a failed node
        # is wrong whether it is the first chunk or the last.
        serving_node = cluster.node_of(rank)
        asked_of: List[List[Fingerprint]] = [
            decode_restore_request(blob) if blob else [] for blob in incoming_requests
        ]
        if any(asked_of) and not serving_node.alive:
            raise StorageError(
                f"rank {rank}: asked to serve from failed node "
                f"{serving_node.node_id}"
            )
        with comm.trace.phase("restore-reply"):
            replies: List[bytes] = []
            for asked in asked_of:
                if not asked:
                    replies.append(b"")
                    continue
                payloads = serving_node.chunks.get_many(asked)
                nbytes = sum(map(len, payloads))
                report.served_chunks += len(payloads)
                report.served_bytes += nbytes
                replies.append(encode_restore_reply(payloads))
            incoming_replies = collectives.alltoall(comm, replies)
            comm.trace.record_chunks(report.served_chunks, report.served_bytes)

        # Merge local and pulled frames, then reassemble the segment structure.
        if manifest.compressed:
            from repro.compress.codecs import decode_auto
        else:
            decode_auto = None
        with comm.trace.phase("restore-reassemble"):
            frames = []
            local_bytes = 0
            for source, start, stop in runs:
                if source == plan.own_node_id:
                    got = serving_node.chunks.get_many(fps[start:stop])
                    local_bytes = sum(map(len, got))
                else:
                    peer = serving[source]
                    got = decode_restore_reply(incoming_replies[peer])
                    if len(got) != stop - start:
                        raise StorageError(
                            f"rank {rank}: rank {peer} answered {len(got)} "
                            f"chunks for {stop - start}"
                        )
                    report.pulled_chunks += len(got)
                    report.pulled_bytes += sum(map(len, got))
                    report.pulled_from[peer] = len(got)
                frames += got
            _record_locality(comm, local_bytes, report.pulled_bytes)
            if decode_auto is not None:
                frames = list(map(decode_auto, frames))
            chunks = list(map(frames.__getitem__, gather.tolist()))
            segments = cut_segments(chunks, manifest.segment_lengths, rank)
            report.total_bytes = sum(manifest.segment_lengths)
        comm.barrier()
        return Dataset(segments), report
