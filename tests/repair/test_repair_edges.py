"""Edge cases of the batched repair path, each held to the reference."""

import numpy as np
import pytest

from repro.core import DumpConfig, Strategy, restore_dataset
from repro.core.runner import run_collective
from repro.repair import execute_repair, plan_repair, repair_cluster, scan_cluster
from repro.storage import Cluster
from repro.storage.manifest import Manifest

from tests.conftest import make_rank_dataset
from tests.integration.test_backend_equivalence import (
    cluster_state,
    comparable_report,
)
from tests.repair.conftest import (
    CS,
    assert_matches_reference,
    blank_out,
    build,
    dumped_cluster,
    rank_dataset,
)


def test_fingerprints_ending_in_nul_survive_scan_plan_wire_and_store():
    # An S-dtype column anywhere on the path would strip the trailing zero
    # bytes and alias or lose these digests.
    fps = [
        b"\x01" * 19 + b"\x00",
        b"\x01" * 19 + b"\x02",
        b"\x01" * 18 + b"\x00\x00",
        b"\x00" * 20,
    ]
    payloads = [bytes([i + 1]) * (CS - 9 * i) for i in range(len(fps))]
    n = 3
    cluster = Cluster(n)
    for rank in range(n):
        manifest = Manifest(
            rank=rank, dump_id=0, segment_lengths=[sum(map(len, payloads))],
            fingerprints=fps, chunk_size=CS,
        )
        for node in cluster.nodes:
            node.put_manifest(manifest)
    cluster.nodes[1].chunks.put_many(list(zip(fps, payloads)))

    scan, schedule = assert_matches_reference(cluster, n)
    assert scan.fps == sorted(fps)
    assert sorted(set(schedule.fps)) == sorted(fps)
    assert schedule.digest_size == 20
    report = repair_cluster(cluster, n)
    assert report.complete and report.chunks_moved == 2 * len(fps)
    for node in cluster.nodes:
        assert sorted(node.chunks.fingerprints()) == sorted(fps)
        assert node.chunks.get_many(fps) == payloads


def test_reconstructed_and_plain_records_share_a_region():
    cluster = dumped_cluster(6, k=3, redundancy="parity", stripe_data=4)
    originals = [make_rank_dataset(rank) for rank in range(6)]
    for node_id in (1, 4):
        cluster.fail_node(node_id)
    _scan, schedule = assert_matches_reference(cluster, 3)
    mixed = [
        (source, dest)
        for source, dest in zip(*np.nonzero(schedule.counts))
        if 0 < schedule.reconstruct[schedule.region_rows(source, dest)].sum()
        < schedule.counts[source, dest]
    ]
    assert mixed
    report = repair_cluster(cluster, 3)
    assert report.complete
    assert report.reconstructed_chunks == schedule.reconstruct.sum() > 0
    assert scan_cluster(cluster, 3).clean
    for rank, original in enumerate(originals):
        assert restore_dataset(cluster, rank)[0] == original


def test_empty_schedule_executes_as_a_clean_collective():
    cluster = dumped_cluster(4, k=3)
    scan = scan_cluster(cluster, 3)
    schedule = plan_repair(cluster, scan)
    assert schedule.empty and schedule.chunks_scheduled == 0
    assert schedule.transfers == [] and schedule.bytes_scheduled == 0
    before = cluster_state(cluster)
    results, _world = run_collective(4, execute_repair, cluster, schedule, scan)
    assert all(r.clean and r.bytes_moved == 0 for r in results)
    assert cluster_state(cluster) == before


def test_destination_fed_by_a_single_source():
    cluster = dumped_cluster(2, k=2)
    blank_out(cluster.nodes[1])
    scan, schedule = assert_matches_reference(cluster, 2)
    assert schedule.counts.tolist() == [[0, scan.deficit_chunks], [0, 0]]
    assert schedule.slots.tolist() == list(range(scan.deficit_chunks))
    report = repair_cluster(cluster, 2)
    assert report.sent_chunks == {0: scan.deficit_chunks}
    assert report.recv_chunks == {1: scan.deficit_chunks}
    assert scan_cluster(cluster, 2).clean


def test_later_dumps_stripe_rescues_what_the_first_dump_lost():
    # Dump 0 is replicated, dump 1 striped.  A chunk both reference loses
    # every replica: dump 0 has no stripe to decode it from, dump 1 does.
    recipe = {
        "k": 2, "n": 5, "parity": [False, True], "strategy": Strategy.COLL_DEDUP,
        "compress": None, "shards": 1, "seed": 3, "tail": 5, "victims": {},
    }
    cluster = build(recipe)
    in_dump0 = set(cluster.find_manifest(0, 0).fingerprints)
    fp = next(
        fp for fp in cluster.find_manifest(0, 1).fingerprints
        if fp in in_dump0
        and any(node.find_parity(fp, 1) for node in cluster.nodes)
    )
    payload = cluster.locate_any(fp)
    for node in cluster.nodes:
        node.chunks.discard(fp)
    scan, schedule = assert_matches_reference(cluster, 2)
    assert scan.chunks[fp].parity_only and scan.chunks[fp].dump_id == 1
    assert not scan.lost_chunks
    assert repair_cluster(cluster, 2).complete
    assert len(cluster.locate(fp)) == 2 and cluster.locate_any(fp) == payload


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_auto_repair_inside_an_existing_world(backend):
    # Every rank scans and plans on its own inside the running world and
    # all of them must arrive at the one schedule the executor needs.
    from repro.apps.memory import MemoryRegistry
    from repro.svc import CheckpointService

    n, k = 5, 3
    config = DumpConfig(replication_factor=k, chunk_size=CS, f_threshold=4096)
    service = CheckpointService(n, config, backend=backend, timeout=60)
    service.register_tenant("app")
    registry = MemoryRegistry()
    for rank in range(n):
        data = bytearray(rank_dataset(rank, 0, 11, 7).to_bytes())
        registry.register(rank, "state", data)
    service.submit("app", registry)
    service.drain()
    cluster = service.cluster

    def repair(comm):
        cluster.fail_node(2)  # every rank's failure detector agrees
        scan = scan_cluster(cluster, k)
        return execute_repair(comm, cluster, plan_repair(cluster, scan), scan)

    reports, _world = run_collective(
        n, repair, cluster=cluster, backend=backend, timeout=60
    )
    assert all(r.complete and r.chunks_moved > 0 for r in reports)
    merged = comparable_report(reports[0])
    assert all(comparable_report(r) == merged for r in reports)
    for rank in range(n):
        dataset, _report = service.restore("app", rank, 0)
        assert dataset.to_bytes() == rank_dataset(rank, 0, 11, 7).to_bytes()
    assert not cluster.nodes[2].alive
    assert scan_cluster(cluster, k).clean
