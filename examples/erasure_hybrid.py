#!/usr/bin/env python
"""Hybrid redundancy (paper §VI future work): parity instead of copies.

After collective dedup, some chunks are still short of the target K —
the globally unique ones.  Plain coll-dedup tops them up with K-D full
copies; the parity dump (``DumpConfig(redundancy="parity")``) stripes them
across ranks with Reed-Solomon parity instead, giving the same
any-(K-1)-failure guarantee at a fraction of the bytes.  This example runs
both dumps on the same data and compares what each stores on top of the
chunks themselves, then kills nodes under a parity dump and restores.

Run:  python examples/erasure_hybrid.py
"""

from repro import Cluster, World, dump_output, restore_dataset
from repro.analysis.tables import format_table, human_bytes
from repro.apps.synthetic import SyntheticWorkload
from repro.core import DumpConfig

N_RANKS = 16
K = 3
CHUNK = 1024
STRIPE_DATA = 8


def dump(workload, **redundancy):
    config = DumpConfig(replication_factor=K, chunk_size=CHUNK,
                        f_threshold=1 << 17, **redundancy)
    cluster = Cluster(N_RANKS)
    reports = World(N_RANKS).run(
        lambda comm: dump_output(
            comm, workload.build_dataset(comm.rank, N_RANKS), config, cluster
        )
    )
    return reports, cluster


def main() -> None:
    workload = SyntheticWorkload(
        chunks_per_rank=128, chunk_size=CHUNK,
        frac_global=0.3, frac_zero=0.1, frac_local_dup=0.1,  # half unique
    )
    replication, _cluster = dump(workload)
    _reports, parity_cluster = dump(
        workload, redundancy="parity", stripe_data=STRIPE_DATA
    )
    topup = sum(r.received_bytes for r in replication)
    parity = sum(node.parity_bytes for node in parity_cluster.nodes)

    print(f"{N_RANKS} ranks, K={K}: what each dump stores beyond the chunks.")
    print(format_table(
        ["top-up mechanism", "extra bytes", "relative"],
        [
            [f"replication ({K - 1} copies)", human_bytes(topup), "1.00x"],
            [f"RS({STRIPE_DATA + K - 1},{STRIPE_DATA}) parity",
             human_bytes(parity), f"{parity / topup:.2f}x"],
        ],
    ))

    parity_dump_end_to_end()


def parity_dump_end_to_end() -> None:
    """The parity dump end to end: redundancy="parity" forms cross-rank
    stripes during the dump, and restore decodes after node failures."""
    print("\n-- end to end: DumpConfig(redundancy='parity') --")
    workload = SyntheticWorkload(chunks_per_rank=64, chunk_size=CHUNK,
                                 frac_global=0.3, frac_zero=0.1)
    reports, cluster = dump(workload, redundancy="parity",
                            stripe_data=STRIPE_DATA)
    parity = sum(node.parity_bytes for node in cluster.nodes)
    print(f"dump complete: {sum(r.parity_stripes for r in reports)} stripes, "
          f"{human_bytes(parity)} of parity instead of replica top-ups.")

    cluster.fail_node(3)
    cluster.fail_node(9)
    restored, report = restore_dataset(cluster, 3)
    assert restored == workload.build_dataset(3, N_RANKS)
    print(f"nodes 3 and 9 failed; rank 3 restored bit-exactly, "
          f"{report.decoded_chunks} chunks decoded from stripes.")


if __name__ == "__main__":
    main()
