"""X1 — Extension (paper Sec. VI future work): erasure coding as a
replacement for replication of rare chunks.

Two real ``dump_output`` collectives on the same HPCCG datasets: coll-dedup
with K=3 replica top-ups, and the parity dump (``redundancy="parity"``,
RS(10,8) stripes across ranks) with the same any-(K-1)-failures guarantee.
Compares the replica top-up bytes (what partners received) with the parity
actually stored, then restores a rank from the parity cluster with K-1
nodes failed.
"""

from repro.analysis.experiments import PAPER_F_THRESHOLD
from repro.analysis.tables import format_table
from repro.core import DumpConfig, dump_output, restore_dataset
from repro.simmpi import World
from repro.storage import Cluster

N = 64
K = 3
STRIPE_DATA = 8


def dump(runner, **redundancy):
    config = DumpConfig(
        replication_factor=K, chunk_size=runner.chunk_size,
        f_threshold=PAPER_F_THRESHOLD, **redundancy,
    )
    cluster = Cluster(N)
    reports = World(N).run(
        lambda comm: dump_output(
            comm, runner.app.build_dataset(comm.rank, N), config, cluster
        )
    )
    return reports, cluster


def both_dumps(runner):
    replication, _cluster = dump(runner)
    return replication, dump(runner, redundancy="parity", stripe_data=STRIPE_DATA)


def test_ext_erasure_hybrid(benchmark, hpccg):
    replication, (parity_reports, cluster) = benchmark.pedantic(
        both_dumps, args=(hpccg,), rounds=1, iterations=1
    )
    scale = hpccg.volume_scale(N)
    topup = sum(r.received_bytes for r in replication)
    parity = sum(node.parity_bytes for node in cluster.nodes)
    savings = 1 - parity / topup

    print()
    print(f"-- X1: replica top-ups vs RS({STRIPE_DATA + K - 1},{STRIPE_DATA}) "
          f"parity, {N} ranks, K={K} --")
    print(format_table(
        ["mechanism", "extra bytes", "GB, paper scale"],
        [
            ["replication top-up (K-D copies)", f"{topup:,}",
             f"{topup * scale / 1e9:.1f}"],
            [f"RS parity ({sum(r.parity_stripes for r in parity_reports)} shards)",
             f"{parity:,}", f"{parity * scale / 1e9:.1f}"],
        ],
    ))
    print(f"savings: {savings * 100:.0f}%")

    assert 0 < parity < topup
    # m/d of the protected bytes instead of m copies would save 1 - 1/d;
    # short-lists of unequal length and chunks narrower than a slot pad the
    # stripes, so less is saved (DESIGN.md "What parity really costs").
    assert savings > 0.5

    for node_id in range(K - 1):  # rank 0's node and its successor
        cluster.fail_node(node_id)
    restored, report = restore_dataset(cluster, 0)
    assert restored == hpccg.app.build_dataset(0, N)
    print(f"nodes 0-{K - 2} failed: rank 0 restored bit-exactly, "
          f"{report.decoded_chunks} chunks decoded from stripes")
