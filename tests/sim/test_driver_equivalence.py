"""The load-bearing test: threaded SPMD dump == deterministic simulator.

Every figure is regenerated with the simulator, so its fidelity to the
real (threaded, byte-moving) implementation is what makes the benchmark
results meaningful.
"""

import pytest

from repro.core import DumpConfig, Strategy, dump_output
from repro.core.fingerprint import Fingerprinter
from repro.core.local_dedup import local_dedup_batched
from repro.sim import simulate_dump
from repro.simmpi import World
from repro.storage import Cluster

from tests.conftest import make_rank_dataset

CS = 64

COMPARED_FIELDS = [
    "n_chunks",
    "dataset_bytes",
    "local_unique_chunks",
    "local_unique_bytes",
    "view_entries",
    "view_bytes",
    "discarded_chunks",
    "stored_chunks",
    "stored_bytes",
    "received_chunks",
    "received_bytes",
    "sent_chunks",
    "sent_bytes",
    "sent_per_partner",
    "load",
    "shuffle_position",
    "partners",
]


def run_both(n, strategy, k, shuffle, dataset_factory=make_rank_dataset, f=4096):
    cfg = DumpConfig(
        replication_factor=k,
        chunk_size=CS,
        strategy=strategy,
        f_threshold=f,
        shuffle=shuffle,
    )
    cluster = Cluster(n, dedup=(strategy is not Strategy.NO_DEDUP))
    threaded = World(n).run(
        lambda comm: dump_output(comm, dataset_factory(comm.rank), cfg, cluster)
    )
    fpr = Fingerprinter(cfg.hash_name)
    indices = [local_dedup_batched(dataset_factory(r), fpr, CS) for r in range(n)]
    simulated = simulate_dump(indices, cfg)
    return threaded, simulated, cluster


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n,k", [(2, 2), (5, 3), (8, 3), (7, 4), (12, 6), (4, 1)])
def test_reports_identical(strategy, n, k):
    threaded, simulated, _ = run_both(n, strategy, k, shuffle=True)
    for rank in range(n):
        t, s = threaded[rank], simulated.reports[rank]
        for field in COMPARED_FIELDS:
            assert getattr(t, field) == getattr(s, field), (strategy, n, k, rank, field)


@pytest.mark.parametrize("shuffle", [True, False])
def test_shuffle_modes_identical(shuffle):
    threaded, simulated, _ = run_both(9, Strategy.COLL_DEDUP, 3, shuffle=shuffle)
    for rank in range(9):
        assert threaded[rank].shuffle_position == simulated.reports[rank].shuffle_position
        assert threaded[rank].partners == simulated.reports[rank].partners
        assert threaded[rank].received_bytes == simulated.reports[rank].received_bytes


@pytest.mark.parametrize("strategy", list(Strategy))
def test_placements_match_cluster_contents(strategy):
    """The simulator's placement map must predict exactly which node stores
    which fingerprint in the real run."""
    n = 8
    _threaded, simulated, cluster = run_both(n, strategy, 3, shuffle=True)
    for fp, holders in simulated.placements.items():
        assert holders == set(cluster.replica_nodes(fp))
    # ... and nothing extra landed anywhere.
    for node in cluster.nodes:
        for fp in node.chunks.fingerprints():
            assert node.node_id in simulated.placements[fp]


def test_tight_f_threshold_equivalence():
    """The F cap changes which fingerprints get a global entry; both paths
    must agree on the resulting (degraded) dedup decisions."""
    threaded, simulated, _ = run_both(10, Strategy.COLL_DEDUP, 3, shuffle=True, f=3)
    for rank in range(10):
        for field in COMPARED_FIELDS:
            assert getattr(threaded[rank], field) == getattr(
                simulated.reports[rank], field
            ), field


def test_uneven_datasets_equivalence():
    from repro.core import Dataset

    def factory(rank):
        return Dataset([bytes([rank % 7]) * (CS * (1 + rank % 4)),
                        b"SHARED!" * CS])

    threaded, simulated, _ = run_both(
        9, Strategy.COLL_DEDUP, 3, shuffle=True, dataset_factory=factory
    )
    for rank in range(9):
        for field in COMPARED_FIELDS:
            assert getattr(threaded[rank], field) == getattr(
                simulated.reports[rank], field
            ), field
