"""Phase-by-phase cost model of one collective dump.

``DUMP_OUTPUT`` is bulk-synchronous — phases are separated by collective
synchronisation — so the modelled dump time is the sum over phases of the
slowest participant's phase time:

* **hash** — chunking + fingerprinting, per rank on its own core
  (dedup strategies only; no-dedup never computes fingerprints).
* **reduction** — one message per recursive-doubling round per rank; the
  per-round table sizes come from the replayed merge tree, so the modelled
  cost reflects the F cap exactly (coll-dedup only).
* **allgather** — the ring allgather of the Load vectors (all strategies;
  single-sided planning needs the SendLoad matrix).
* **exchange** — one-sided puts; a node's time is bounded by the larger of
  its aggregate send and receive volumes over its shared NIC (full-duplex),
  plus per-put CPU overhead.  This is where the *max receive size* the
  paper plots becomes the critical path.
* **write** — own + received chunks to the node-shared local device.

``volume_scale`` multiplies every byte volume, letting scaled-down
simulations be priced at paper-scale sizes (the model is linear in volume).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import Strategy
from repro.netsim.machine import MachineProfile
from repro.sim.driver import SimResult


@dataclass
class DumpTimeBreakdown:
    """Modelled wall-clock seconds per phase of one dump."""

    hash: float = 0.0
    reduction: float = 0.0
    allgather: float = 0.0
    exchange: float = 0.0
    write: float = 0.0

    @property
    def total(self) -> float:
        return self.hash + self.reduction + self.allgather + self.exchange + self.write

    @property
    def dedup_overhead(self) -> float:
        """The cost Figure 3(b)/(c) plots: hash + collective reduction."""
        return self.hash + self.reduction

    def scaled(self, factor: float) -> "DumpTimeBreakdown":
        return DumpTimeBreakdown(
            hash=self.hash * factor,
            reduction=self.reduction * factor,
            allgather=self.allgather * factor,
            exchange=self.exchange * factor,
            write=self.write * factor,
        )


def _per_node_sums(values: Sequence[float], rank_to_node: Sequence[int]) -> Dict[int, float]:
    sums: Dict[int, float] = {}
    for rank, value in enumerate(values):
        node = rank_to_node[rank]
        sums[node] = sums.get(node, 0.0) + value
    return sums


def inter_node_exchange(
    result: SimResult, rank_to_node: Sequence[int]
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Exchange-phase bytes that actually cross a NIC.

    Returns ``(tx_by_node, rx_by_node)`` with same-node
    transfers excluded — a put between two ranks of one node is a shared-
    memory copy, not network traffic.  Each rank's sent bytes distribute
    over its partner slots proportionally to chunk counts (exact when
    chunks share a size, which fixed chunking guarantees except for tails).
    """
    tx: Dict[int, float] = {}
    rx: Dict[int, float] = {}
    for rank, (plan, report) in enumerate(zip(result.plans, result.reports)):
        src_node = rank_to_node[rank]
        total_chunks = sum(len(fps) for fps in plan.partner_chunks)
        if not total_chunks:
            continue
        per_chunk = report.sent_bytes / total_chunks
        for target, fps in zip(report.partners, plan.partner_chunks):
            if not fps:
                continue
            dst_node = rank_to_node[target]
            if src_node == dst_node:
                continue
            nbytes = len(fps) * per_chunk
            tx[src_node] = tx.get(src_node, 0.0) + nbytes
            rx[dst_node] = rx.get(dst_node, 0.0) + nbytes
    return tx, rx


def reduction_cap_bytes(f_threshold: int, k: int, digest_size: int = 20) -> float:
    """Upper bound on one merge table's wire size under the F cap.

    Each surviving entry carries the digest, a u32 frequency and up to K
    u32 designated ranks.  When volumes are rescaled to paper size, the
    simulated (uncapped-in-practice) tables must not be priced beyond what
    the paper's F threshold would allow on the wire — the cap is the whole
    point of the bounded-complexity design.
    """
    return f_threshold * (digest_size + 4 + 4 * k)


@dataclass
class RepairTimeBreakdown:
    """Modelled wall-clock seconds per phase of one collective repair.

    Same bulk-synchronous pricing philosophy as :class:`DumpTimeBreakdown`:
    each phase costs what its slowest node takes.

    * **exchange** — repair replicas over the NIC: a node's time is the
      larger of what it serves and what it receives (full-duplex), plus
      per-chunk put overhead for served copies.
    * **write** — received replicas onto the node-shared device.
    * **manifest** — manifest blob re-replication (latency-dominated; one
      message per blob).
    """

    exchange: float = 0.0
    write: float = 0.0
    manifest: float = 0.0

    @property
    def total(self) -> float:
        return self.exchange + self.write + self.manifest

    def scaled(self, factor: float) -> "RepairTimeBreakdown":
        return RepairTimeBreakdown(
            exchange=self.exchange * factor,
            write=self.write * factor,
            manifest=self.manifest * factor,
        )


def repair_time(
    report,
    machine: MachineProfile,
    volume_scale: float = 1.0,
) -> RepairTimeBreakdown:
    """Price a :class:`~repro.repair.executor.RepairReport` on a machine.

    The report's per-node sent/received maps are the repair analogue of the
    dump's SendLoad matrix — the planner balanced them, and this model is
    how that balancing shows up as wall-clock: repair time is driven by the
    *busiest* node, so spreading sources and destinations is what makes
    repair fast.
    """
    if volume_scale <= 0:
        raise ValueError("volume_scale must be positive")
    breakdown = RepairTimeBreakdown()
    exchange = 0.0
    for node in set(report.sent_bytes) | set(report.recv_bytes):
        wire = (
            max(report.sent_bytes.get(node, 0), report.recv_bytes.get(node, 0))
            * volume_scale
        )
        t = (
            wire / machine.node_net_bandwidth
            + report.sent_chunks.get(node, 0) * machine.put_overhead
        )
        exchange = max(exchange, t)
    breakdown.exchange = exchange
    if report.recv_bytes:
        breakdown.write = (
            max(report.recv_bytes.values())
            * volume_scale
            / machine.node_storage_bandwidth
        )
    if report.manifests_moved:
        breakdown.manifest = report.manifests_moved * machine.network_latency + (
            report.manifest_bytes_moved * volume_scale / machine.node_net_bandwidth
        )
    return breakdown


def dump_time(
    result: SimResult,
    machine: MachineProfile,
    volume_scale: float = 1.0,
    rank_to_node: Optional[Sequence[int]] = None,
) -> DumpTimeBreakdown:
    """Price a simulated dump on a machine profile."""
    if volume_scale <= 0:
        raise ValueError("volume_scale must be positive")
    reports = result.reports
    world = len(reports)
    if rank_to_node is None:
        rank_to_node = machine.rank_to_node(world)
    strategy = result.config.strategy
    breakdown = DumpTimeBreakdown()

    # hash: per rank on its own core; no-dedup skips fingerprinting.
    if strategy is not Strategy.NO_DEDUP:
        breakdown.hash = max(
            r.hashed_bytes * volume_scale / machine.hash_bandwidth for r in reports
        )

    # reduction: log2(N)+O(1) rounds, table bytes per round per rank; ranks
    # on a node serialise on the shared NIC within a round.
    if strategy is Strategy.COLL_DEDUP and world > 1:
        ranks_on_busiest_node = max(
            sum(1 for r in range(world) if rank_to_node[r] == node)
            for node in set(rank_to_node)
        )
        k = result.config.effective_k(world)
        cap = reduction_cap_bytes(result.config.f_threshold, k)
        for level_bytes in result.reduction_level_nbytes:
            wire = min(level_bytes * volume_scale, cap) * ranks_on_busiest_node
            breakdown.reduction += machine.network_latency + wire / machine.node_net_bandwidth

    # allgather of Load vectors: ring, N-1 rounds of K*8 bytes per rank.
    if world > 1:
        k = result.config.effective_k(world)
        row_bytes = k * 8 * machine.ranks_per_node
        breakdown.allgather = (world - 1) * (
            machine.network_latency + row_bytes / machine.node_net_bandwidth
        )

    # exchange: per-node full-duplex NIC bound on *inter-node* traffic
    # (same-node puts are shared-memory copies), plus per-put CPU overhead.
    send_by_node, recv_by_node = inter_node_exchange(result, rank_to_node)
    puts_by_node = _per_node_sums([float(r.sent_chunks) for r in reports], rank_to_node)
    exchange = 0.0
    for node in set(send_by_node) | set(recv_by_node) | set(puts_by_node):
        wire = max(send_by_node.get(node, 0.0), recv_by_node.get(node, 0.0)) * volume_scale
        t = wire / machine.node_net_bandwidth + puts_by_node.get(node, 0.0) * machine.put_overhead
        exchange = max(exchange, t)
    breakdown.exchange = exchange

    # write: own + received chunks onto the node-shared device.
    store_by_node = _per_node_sums(
        [r.stored_bytes + r.received_bytes for r in reports], rank_to_node
    )
    if store_by_node:
        breakdown.write = (
            max(store_by_node.values()) * volume_scale / machine.node_storage_bandwidth
        )
    return breakdown
