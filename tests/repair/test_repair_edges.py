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
from tests.repair import reference
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


def _place(cluster, fps, payloads, nodes_of):
    """Store ``fps[i]`` on each node in ``nodes_of[i]``."""
    for fp, payload, nodes in zip(fps, payloads, nodes_of):
        for node_id in nodes:
            cluster.nodes[node_id].chunks.put(fp, payload)


def _manifest(rank, dump_id, fps):
    return Manifest(
        rank=rank, dump_id=dump_id, segment_lengths=[CS * len(fps)],
        fingerprints=list(fps), chunk_size=CS,
    )


def test_seventy_nodes_scan_and_plan_equal_the_reference():
    # Holder sets past bit 63 need a second mask word; built without a
    # world, since scan and plan only read the stores.
    n, k = 70, 3
    rng = np.random.RandomState(70)
    cluster = Cluster(n)
    fps = [rng.bytes(20) for _ in range(300)]
    payloads = [rng.bytes(int(size)) for size in rng.randint(1, CS, len(fps))]
    nodes_of = [
        rng.choice(n, size=rng.randint(0, k + 2), replace=False) for _ in fps
    ]
    _place(cluster, fps, payloads, nodes_of)
    for rank in range(n):
        if rank % 7 == 3:
            continue  # never dumped: a lost rank
        manifest = _manifest(rank, 0, [fps[i] for i in rng.randint(0, len(fps), 12)])
        for node_id in rng.choice(n, size=rng.randint(1, k + 1), replace=False):
            cluster.nodes[node_id].put_manifest(manifest)
    for node_id in (2, 40, 63, 64, 69):
        cluster.fail_node(node_id)

    scan, schedule = assert_matches_reference(cluster, k)
    assert any(max(h, default=0) >= 64 for h in scan.holders)
    assert (schedule.dest >= 64).any() and (schedule.source >= 64).any()
    assert scan.lost_chunks and scan.lost_ranks


def test_an_empty_manifest_on_a_live_node():
    # Its digest column decodes as 1-byte voids: the audit must skip it,
    # beside other manifests and alone.
    cluster = dumped_cluster(4, k=3)
    empty = _manifest(1, 0, [])
    for node in cluster.nodes:
        node.put_manifest(empty)
    cluster.fail_node(2)
    scan, _schedule = assert_matches_reference(cluster, 3)
    assert scan.fps and not scan.lost_ranks

    alone = Cluster(3)
    for node in alone.nodes[:2]:
        node.put_manifest(_manifest(0, 0, []))
    scan, schedule = assert_matches_reference(alone, 3)
    assert scan.scanned_chunks == 0 and not scan.fps and not schedule.fps
    assert scan.lost_ranks == [(1, 0), (2, 0)]
    assert [m.rank for m in scan.manifests] == [0]


def test_no_readable_manifest_gives_an_empty_table():
    cluster = dumped_cluster(4, k=3)
    for node in cluster.nodes:
        for key in node.manifest_keys():
            node.drop_manifest(*key)
    scan = scan_cluster(cluster, 3, dump_ids=[0])
    expected = reference.scan(cluster, 3, [0])
    assert scan.lost_ranks == expected["lost_ranks"] == [(r, 0) for r in range(4)]
    assert scan.fps == scan.sizes == scan.holders == scan.chunk_dump_ids == []
    assert scan.scanned_chunks == scan.scanned_bytes == scan.deficit_chunks == 0
    assert not scan.clean
    assert plan_repair(cluster, scan).empty


def test_digests_ending_in_zero_bytes_survive_the_audit():
    # Every digest shares its first 12 bytes, so the audit's sort cannot
    # tell them apart by prefix; several end in NULs, which an S view
    # listed as bytes would strip.  Each is referenced by two dumps: the
    # earliest writer is the one the table keeps.
    stem = b"\x07" * 12
    fps = [
        stem + b"\x00" * 8,
        stem + b"\x00" * 7 + b"\x01",
        stem + b"\x01" + b"\x00" * 7,
        stem + b"\x00" * 6 + b"\x01\x00",
    ]
    payloads = [bytes([i + 1]) * (CS - i) for i in range(len(fps))]
    n = 3
    cluster = Cluster(n)
    _place(cluster, fps, payloads, [[0]] * len(fps))
    for dump_id, order in ((0, fps[1::2]), (1, fps), (2, fps[::2])):
        for rank in range(n):
            for node in cluster.nodes:
                node.put_manifest(_manifest(rank, dump_id, order))
    scan, schedule = assert_matches_reference(cluster, n)
    assert scan.fps == sorted(fps) and scan.scanned_chunks == len(fps)
    assert all(len(fp) == 20 for fp in scan.fps)
    first = {fp: 0 if fp in fps[1::2] else 1 for fp in fps}
    assert scan.chunk_dump_ids == [first[fp] for fp in scan.fps]
    assert schedule.chunks_scheduled == 2 * len(fps)


def test_digests_of_two_widths_audit_in_bytes_order():
    # Dumps hashed with different digests (20 and 16 bytes) audit apart
    # and merge in bytes order; a schedule that would mix them is refused.
    rng = np.random.RandomState(16)
    wide = [rng.bytes(20) for _ in range(6)]
    narrow = [fp[:16] for fp in wide[:3]] + [rng.bytes(16) for _ in range(3)]
    payloads = [bytes([i + 1]) * CS for i in range(12)]
    n = 3
    cluster = Cluster(n)
    _place(cluster, wide + narrow, payloads, [[0]] * 6 + [[0, 1, 2]] * 6)
    for node in cluster.nodes:
        for rank in range(n):
            node.put_manifest(_manifest(rank, 0, wide))
            node.put_manifest(_manifest(rank, 1, narrow))
    scan = scan_cluster(cluster, n)
    expected = reference.scan(cluster, n)
    assert scan.chunks == expected["chunks"]
    assert scan.fps == sorted(wide)  # the narrow ones are fully replicated
    assert scan.scanned_chunks == expected["scanned_chunks"] == 12
    assert scan.scanned_bytes == expected["scanned_bytes"]
    cluster.nodes[2].chunks.discard(narrow[0])
    scan = scan_cluster(cluster, n)
    assert scan.fps == sorted(wide + narrow[:1])
    assert scan.chunks == reference.scan(cluster, n)["chunks"]
    with pytest.raises(ValueError, match="mixed fingerprint sizes"):
        plan_repair(cluster, scan)


def test_dump_ids_out_of_order_keep_the_callers_earliest_writer():
    # The earliest writer is the first dump in the caller's order, not the
    # smallest id: for chunk rows, lost chunks and the holderless walk.
    recipe = {
        "k": 2, "n": 5, "parity": [True, False, True],
        "strategy": Strategy.COLL_DEDUP, "compress": None, "shards": 1,
        "seed": 5, "tail": 3, "victims": {1: False},
    }
    cluster = build(recipe)
    shared = set(cluster.find_manifest(0, 0).fingerprints)
    shared &= set(cluster.find_manifest(0, 1).fingerprints)
    shared &= set(cluster.find_manifest(0, 2).fingerprints)
    striped = sorted(
        fp for fp in shared if any(n.find_parity(fp, 2) for n in cluster.alive_nodes)
    )
    plain = sorted(shared - set(striped))
    assert striped and plain
    for fp in (striped[0], plain[0]):  # no replica survives
        for node in cluster.nodes:
            node.chunks.discard(fp)
    for dump_ids in ([2, 1, 0], [1, 0, 2], [1, 2, 0], [0, 1, 2]):
        scan, _schedule = assert_matches_reference(cluster, 2, dump_ids)
        rows = dict(zip(scan.fps, scan.chunk_dump_ids))
        held = shared - {striped[0], plain[0]}
        assert all(rows[fp] == dump_ids[0] for fp in held if fp in rows)
        assert dict(scan.lost_chunks)[plain[0]] == dump_ids[0]
        # dump 1 has no stripe: the walk goes on to the next dump that does
        rescuer = next(
            d for d in dump_ids if reference.decodable(cluster, striped[0], d)
        )
        assert rows[striped[0]] == rescuer != 1
