"""Machine profiles: the hardware constants of the cost model."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional


@dataclass(frozen=True)
class MachineProfile:
    """Hardware constants used to price communication/storage volumes.

    Bandwidths are bytes/second.  ``node_net_bandwidth`` and
    ``node_storage_bandwidth`` are *per node* and shared by all ranks on the
    node — on the paper's testbed 12 ranks share one GbE NIC and one local
    HDD, which is the dominant effect behind its absolute numbers.
    ``hash_bandwidth`` is per rank (each rank hashes on its own core).
    """

    name: str = "generic"
    ranks_per_node: int = 1
    node_net_bandwidth: float = 1e9
    node_storage_bandwidth: float = 500e6
    hash_bandwidth: float = 400e6
    network_latency: float = 50e-6
    put_overhead: float = 1e-6  # per one-sided put, CPU-side
    #: "cyclic" (default) or "block" rank placement.  The paper requires
    #: replicas on "K-1 other *remote nodes*"; with the naive i+1..i+K-1
    #: partner relation that only holds under cyclic (round-robin) rank
    #: placement, so cyclic is the faithful default.  Block placement is
    #: kept for the node-placement study (bench X4), where same-node
    #: partners are precisely the failure mode under test.
    placement: str = "cyclic"

    def __post_init__(self) -> None:
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if self.placement not in ("cyclic", "block"):
            raise ValueError(
                f"placement must be 'cyclic' or 'block', got {self.placement!r}"
            )
        for fld in ("node_net_bandwidth", "node_storage_bandwidth", "hash_bandwidth"):
            if getattr(self, fld) <= 0:
                raise ValueError(f"{fld} must be positive")

    @classmethod
    def shamrock(cls) -> "MachineProfile":
        """The paper's testbed: 34 nodes, Xeon X5670 (12 hw threads),
        Gigabit Ethernet, 1 TB local HDD, 12 ranks/node at full scale."""
        return cls(
            name="shamrock",
            ranks_per_node=12,
            node_net_bandwidth=117e6,  # GbE payload rate
            node_storage_bandwidth=100e6,  # 7.2k HDD sequential write
            hash_bandwidth=400e6,  # OpenSSL SHA-1, one core
            network_latency=50e-6,
            put_overhead=1e-6,
        )

    @classmethod
    def flash_cluster(cls) -> "MachineProfile":
        """A what-if profile: 10 GbE + local NVMe (used by extension
        benches to show where the crossovers move on faster hardware)."""
        return cls(
            name="flash",
            ranks_per_node=16,
            node_net_bandwidth=1.17e9,
            node_storage_bandwidth=2e9,
            hash_bandwidth=400e6,
            network_latency=10e-6,
            put_overhead=0.5e-6,
        )

    def with_(self, **changes) -> "MachineProfile":
        return replace(self, **changes)

    def rank_to_node(self, n_ranks: int) -> List[int]:
        """Rank placement: cyclic (r mod n_nodes) or block (r // rpn)."""
        n_nodes = self.n_nodes(n_ranks)
        if self.placement == "cyclic":
            return [r % n_nodes for r in range(n_ranks)]
        return [r // self.ranks_per_node for r in range(n_ranks)]

    def n_nodes(self, n_ranks: int) -> int:
        return (n_ranks + self.ranks_per_node - 1) // self.ranks_per_node
