"""Repair layer 3 — the executor: collective re-replication over simmpi.

Runs the planner's schedule through the same machinery the dump itself
uses: a one-sided window per receiver sized exactly to its incoming
repair traffic, each sender encoding a destination's whole region of
fixed-size wire records (:mod:`repro.core.wire`) straight into that window
at the slot offset the schedule derived, one fence separating the exchange
epoch from the local commit (one in-place decode of the window into one
batched store write).  Phases are traced
(``repair-exchange``, ``repair-write``, ``repair-manifest``) so
:func:`repro.netsim.cost_model.repair_time` can price a repair exactly
like a dump.

One live node = one *agent* rank (the lowest rank mapped to it).  Every
rank of the world participates in the collectives — including ranks whose
node is dead, which expose zero-byte windows and move nothing — so the
executor can run inside any existing SPMD program (e.g. right after a
collective restart) without communicator surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.core.wire import (
    decode_region_unique,
    encode_records_into,
    slot_nbytes,
)
from repro.repair.planner import RepairSchedule
from repro.repair.scanner import RepairScan
from repro.simmpi import collectives
from repro.simmpi.comm import Communicator
from repro.simmpi.trace import PhaseCounters
from repro.simmpi.window import Window
from repro.storage.local_store import Cluster

#: trace phase names, in execution order
REPAIR_PHASES = ("repair-exchange", "repair-write", "repair-manifest")


@dataclass
class RepairReport:
    """Accounting of one collective repair, merged across every rank."""

    target_k: int
    n_live_nodes: int = 0
    #: replica copies created / payload bytes they carried
    chunks_moved: int = 0
    bytes_moved: int = 0
    #: copies whose payload had to be RS-decoded from a parity stripe first
    reconstructed_chunks: int = 0
    manifests_moved: int = 0
    manifest_bytes_moved: int = 0
    #: node id -> chunks/bytes it served as a repair source
    sent_chunks: Dict[int, int] = field(default_factory=dict)
    sent_bytes: Dict[int, int] = field(default_factory=dict)
    #: node id -> replica copies/bytes that landed on it
    recv_chunks: Dict[int, int] = field(default_factory=dict)
    recv_bytes: Dict[int, int] = field(default_factory=dict)
    #: unrepairable damage found by the scan (counts, not identities)
    lost_chunks: int = 0
    lost_ranks: int = 0
    #: scan context: chunks the walk visited / deficit it found
    scanned_chunks: int = 0
    deficit_chunks: int = 0
    deficit_bytes: int = 0
    #: per-phase communication totals, merged across ranks
    phases: Dict[str, PhaseCounters] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when the scan found nothing to repair and nothing lost."""
        return not (
            self.deficit_chunks
            or self.manifests_moved
            or self.lost_chunks
            or self.lost_ranks
            or self.chunks_moved
        )

    @property
    def complete(self) -> bool:
        """True when nothing was lost beyond repair."""
        return not (self.lost_chunks or self.lost_ranks)

    def merge_fragment(self, other: "RepairReport") -> None:
        """Fold one rank's contribution into this report."""
        self.chunks_moved += other.chunks_moved
        self.bytes_moved += other.bytes_moved
        self.reconstructed_chunks += other.reconstructed_chunks
        self.manifests_moved += other.manifests_moved
        self.manifest_bytes_moved += other.manifest_bytes_moved
        for src, dst in (
            (other.sent_chunks, self.sent_chunks),
            (other.sent_bytes, self.sent_bytes),
            (other.recv_chunks, self.recv_chunks),
            (other.recv_bytes, self.recv_bytes),
        ):
            for node, v in src.items():
                dst[node] = dst.get(node, 0) + v
        for name, counters in other.phases.items():
            self.phases.setdefault(name, PhaseCounters()).merge(counters)


def base_report(scan: RepairScan) -> RepairReport:
    """A zero-movement report carrying the scan's context and loss counts."""
    return RepairReport(
        target_k=scan.target_k,
        n_live_nodes=scan.n_live_nodes,
        lost_chunks=len(scan.lost_chunks),
        lost_ranks=len(scan.lost_ranks),
        scanned_chunks=scan.scanned_chunks,
        deficit_chunks=scan.deficit_chunks,
        deficit_bytes=scan.deficit_bytes,
    )


def agent_ranks(cluster: Cluster, world_size: int) -> Dict[int, int]:
    """live node id -> the rank that acts for it (lowest rank on the node)."""
    agents: Dict[int, int] = {}
    for rank in range(world_size):
        node_id = cluster.rank_to_node[rank]
        if cluster.nodes[node_id].alive and node_id not in agents:
            agents[node_id] = rank
    return agents


def _send_regions(
    win: Window,
    cluster: Cluster,
    schedule: RepairSchedule,
    my_node: int,
    agents: Dict[int, int],
    fragment: RepairReport,
) -> None:
    """Ship everything ``my_node`` serves: one region per destination.

    A destination's records from this source are contiguous in its window,
    so each region is read from the store and encoded straight into the
    destination's window at the offset the schedule derived.
    """
    from repro.erasure.ec_dump import reconstruct_chunk

    digest_size, capacity = schedule.digest_size, schedule.slot_payload
    slot = slot_nbytes(digest_size, capacity)
    store = cluster.nodes[my_node].chunks
    outgoing = schedule.counts[my_node]
    sent_chunks = sent_bytes = 0
    for dest in np.flatnonzero(outgoing).tolist():
        rows = schedule.region_rows(my_node, dest).tolist()
        fps = [schedule.fps[row] for row in rows]
        decode = schedule.reconstruct[rows]
        if decode.any():
            payloads = [
                reconstruct_chunk(cluster, fp, schedule.dump_ids[row])
                if rebuilt
                else store.get(fp)
                for fp, row, rebuilt in zip(fps, rows, decode.tolist())
            ]
            fragment.reconstructed_chunks += int(decode.sum())
        else:
            payloads = store.get_many(fps)
        encode_records_into(
            win.put_view(
                agents[dest],
                int(schedule.starts[my_node, dest]) * slot,
                len(rows) * slot,
            ),
            zip(fps, payloads),
            digest_size,
            capacity,
        )
        sent_chunks += len(rows)
        sent_bytes += sum(map(len, payloads))
    if sent_chunks:
        fragment.sent_chunks[my_node] = sent_chunks
        fragment.sent_bytes[my_node] = sent_bytes


def execute_repair(
    comm: Communicator,
    cluster: Cluster,
    schedule: RepairSchedule,
    scan: Optional[RepairScan] = None,
) -> RepairReport:
    """Collectively execute ``schedule``; every rank returns the identical
    merged :class:`RepairReport`.

    Must be called by every rank of the world (it is a collective), with the
    same ``schedule`` everywhere — which :func:`repro.repair.planner.plan_repair`
    guarantees when each rank plans independently from the shared cluster
    state.
    """
    if comm.size != cluster.n_ranks:
        raise ValueError(
            f"repair world of {comm.size} ranks does not match the cluster's "
            f"{cluster.n_ranks}"
        )
    # When each rank planned its own schedule (the in-world path), a fast
    # pair of agents must not start mutating cluster state while a slow rank
    # is still scanning it — that would fork the schedules.  Hold everyone
    # at the door until all plans are final.
    comm.barrier()
    repair_span = comm.trace.begin_span(
        "repair",
        transfers=schedule.chunks_scheduled,
        manifest_transfers=len(schedule.manifest_transfers),
    )
    agents = agent_ranks(cluster, comm.size)
    my_node = cluster.rank_to_node[comm.rank]
    i_am_agent = agents.get(my_node) == comm.rank

    fragment = base_report(scan) if scan is not None else RepairReport(
        target_k=schedule.target_k, n_live_nodes=len(agents)
    )

    # -- chunk replicas: one-sided exchange, then local commit ----------------
    if schedule.fps:
        digest_size, capacity = schedule.digest_size, schedule.slot_payload
        slot = slot_nbytes(digest_size, capacity)
        n_in = int(schedule.window_slots[my_node]) if i_am_agent else 0
        with comm.trace.phase("repair-exchange"):
            win = Window.create(comm, n_in * slot)
            if i_am_agent:
                _send_regions(win, cluster, schedule, my_node, agents, fragment)
            win.fence()
        with comm.trace.phase("repair-write"):
            if n_in:
                # A chunk never lands twice on one node, so every
                # multiplicity is 1; the unique decode is the window codec
                # the dump's receive side uses.
                pairs, mults, landed = decode_region_unique(
                    win.local_view(), digest_size, capacity, 0, n_in
                )
                cluster.nodes[my_node].chunks.put_counted(
                    (fp, payload, m) for (fp, payload), m in zip(pairs, mults)
                )
                comm.trace.record_chunks(n_in, landed)
                fragment.chunks_moved += n_in
                fragment.bytes_moved += landed
                fragment.recv_chunks[my_node] = n_in
                fragment.recv_bytes[my_node] = landed
        win.free()

    # -- manifests: tiny point-to-point blobs between agents ------------------
    with comm.trace.phase("repair-manifest"):
        # Collective tag advance: every rank calls this exactly once whether
        # or not it moves a manifest, keeping tag counters in lockstep.
        tag = comm.next_collective_tag()
        for mt in schedule.manifest_transfers:
            src_agent = agents[mt.source]
            dst_agent = agents[mt.dest]
            if comm.rank == src_agent:
                blob = cluster.nodes[mt.source].get_manifest_blob(
                    mt.rank, mt.dump_id
                )
                comm.send(blob, dst_agent, tag=tag)
                fragment.sent_bytes[mt.source] = (
                    fragment.sent_bytes.get(mt.source, 0) + len(blob)
                )
            if comm.rank == dst_agent:
                blob = comm.recv(src_agent, tag=tag)
                cluster.nodes[mt.dest].put_manifest_blob(blob)
                fragment.manifests_moved += 1
                fragment.manifest_bytes_moved += len(blob)
                fragment.recv_bytes[mt.dest] = (
                    fragment.recv_bytes.get(mt.dest, 0) + len(blob)
                )

    # Snapshot this rank's repair-phase counters into the fragment, then
    # merge every fragment so all ranks return the same complete report.
    for name in REPAIR_PHASES:
        counters = comm.trace.phases.get(name)
        if counters is not None:
            fragment.phases[name] = replace(counters)
    fragments = collectives.allgather(comm, fragment)
    comm.trace.end_span(repair_span)
    merged = base_report(scan) if scan is not None else RepairReport(
        target_k=schedule.target_k, n_live_nodes=len(agents)
    )
    for frag in fragments:
        merged.merge_fragment(frag)
    return merged
