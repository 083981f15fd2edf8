"""Shared helpers for the repair-engine tests."""

from __future__ import annotations

import numpy as np

from repro.core import DumpConfig, Strategy, dump_output
from repro.core.chunking import Dataset
from repro.repair import plan_repair, scan_cluster
from repro.simmpi import World
from repro.storage import Cluster

from tests.conftest import make_rank_dataset
from tests.repair import reference

CS = 64


def dumped_cluster(n, k=3, strategy=Strategy.COLL_DEDUP, dump_ids=(0,), **cfg):
    """A cluster with one (or more) completed collective dumps on it."""
    config = DumpConfig(replication_factor=k, chunk_size=64, strategy=strategy,
                        f_threshold=4096, **cfg)
    cluster = Cluster(n)
    for dump_id in dump_ids:
        World(n).run(
            lambda comm: dump_output(
                comm, make_rank_dataset(comm.rank), config, cluster,
                dump_id=dump_id,
            )
        )
    return cluster


def blank_out(node) -> None:
    """The node is replaced by an empty one: alive, holding nothing."""
    node.chunks.clear()
    for key in node.manifest_keys():
        node.drop_manifest(*key)


def rank_dataset(rank: int, dump_id: int, seed: int, tail: int) -> Dataset:
    """Shared, per-dump, zero and rank-unique chunks; the last segment ends
    ``tail`` bytes into a chunk."""
    rng = np.random.RandomState(seed * 100 + rank)
    return Dataset([
        b"G" * (CS * 3),
        bytes([50 + dump_id]) * (CS * 2),
        b"\x00" * CS,
        # compressible to a different size per rank
        bytes([rank + 1]) * (CS + rank * 7) + rng.bytes(CS - rank * 7),
        rng.bytes(CS * 3 + tail),
    ])


def build(recipe) -> Cluster:
    """The damaged cluster a ``damage_recipes`` draw (see
    ``test_repair_equivalence.py``) describes; same recipe, same cluster."""
    n = recipe["n"]
    cluster = Cluster(n, shard_count=recipe["shards"])
    for dump_id, parity in enumerate(recipe["parity"]):
        config = DumpConfig(
            replication_factor=recipe["k"],
            chunk_size=CS,
            strategy=recipe["strategy"],
            f_threshold=4096,
            compress=recipe["compress"],
            **({"redundancy": "parity", "stripe_data": 3} if parity else {}),
        )
        World(n).run(
            lambda comm: dump_output(
                comm,
                rank_dataset(comm.rank, dump_id, recipe["seed"], recipe["tail"]),
                config,
                cluster,
                dump_id=dump_id,
            )
        )
    for node_id, blank in recipe["victims"].items():
        if blank:
            blank_out(cluster.nodes[node_id])
        else:
            cluster.fail_node(node_id)
    return cluster


def assert_matches_reference(cluster, k, dump_ids=None):
    """Scan, schedule and window layout equal the reference's; returns the
    production ``(scan, schedule)``."""
    scan = scan_cluster(cluster, k, dump_ids)
    expected = reference.scan(cluster, k, dump_ids)
    assert scan.target == expected["target"]
    assert scan.chunks == expected["chunks"]
    assert list(scan.chunks) == sorted(expected["chunks"]) == scan.fps
    assert scan.manifests == expected["manifests"]
    assert scan.lost_chunks == expected["lost_chunks"]
    assert scan.lost_ranks == expected["lost_ranks"]
    assert scan.scanned_chunks == expected["scanned_chunks"]
    assert scan.scanned_bytes == expected["scanned_bytes"]
    deficits = expected["chunks"].values()
    assert scan.deficit_chunks == sum(d.deficit for d in deficits)
    assert scan.deficit_bytes == sum(d.deficit_bytes for d in deficits)

    schedule = plan_repair(cluster, scan)
    transfers, manifest_transfers = reference.plan(
        cluster, expected["chunks"], expected["manifests"]
    )
    assert schedule.transfers == transfers
    assert schedule.manifest_transfers == manifest_transfers
    assert schedule.chunks_scheduled == len(transfers)
    assert schedule.bytes_scheduled == sum(t.size for t in transfers)
    if transfers:
        assert schedule.slot_payload == max(t.size for t in transfers)
        assert schedule.digest_size == len(transfers[0].fp)

    # Same slots, and they tile each window: region after region in
    # ascending source, no gap and no overlap.
    assert schedule.slots.tolist() == reference.window_slots(transfers)
    for dest, n_slots in enumerate(schedule.window_slots.tolist()):
        inbound = [i for i, t in enumerate(transfers) if t.dest == dest]
        assert sorted(schedule.slots[inbound].tolist()) == list(range(n_slots))
        end = 0
        for source in range(len(schedule.counts)):
            rows = schedule.region_rows(source, dest).tolist()
            assert rows == [i for i in inbound if transfers[i].source == source]
            if rows:
                assert schedule.starts[source, dest] == end
                end += len(rows)
        assert end == n_slots
    return scan, schedule
