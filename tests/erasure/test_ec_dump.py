"""Erasure-coded redundancy end to end: cross-rank stripe groups with
rotating parity holders, and decode-on-restore."""

import itertools

import pytest

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.runner import run_collective
from repro.erasure import ec_dump
from repro.erasure.ec_dump import (
    NO_CHUNK,
    ParityRecord,
    effective_geometry,
    find_stripe,
    group_structure,
    parity_shard,
    reconstruct_chunk,
)
from repro.erasure.reed_solomon import ReedSolomon
from repro.simmpi import World
from repro.storage import Cluster
from repro.storage.failures import FailureInjector
from repro.storage.local_store import StorageError

from tests.conftest import make_rank_dataset
from tests.repair import reference

CS = 64


def dump_parity(n, k=3, stripe_data=4, cluster=None, backend="thread"):
    cfg = DumpConfig(replication_factor=k, chunk_size=CS, f_threshold=4096,
                     redundancy="parity", stripe_data=stripe_data)
    if cluster is None:
        cluster = Cluster(n)
    reports, _world = run_collective(
        n,
        lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster),
        cluster=cluster, backend=backend, timeout=60,
    )
    return reports, cluster


def failure_subsets(n):
    """Every set of failed nodes of an ``n``-node cluster, the empty one and
    the full one included."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="redundancy"):
            DumpConfig(redundancy="raid5")
        with pytest.raises(ValueError, match="stripe_data"):
            DumpConfig(redundancy="parity", stripe_data=0)
        with pytest.raises(ValueError, match="coll-dedup"):
            DumpConfig(redundancy="parity", strategy=Strategy.NO_DEDUP)

    def test_simulator_rejects_parity(self):
        from repro.core.local_dedup import index_from_fingerprints
        from repro.sim import simulate_dump

        idx = index_from_fingerprints([b"x" * 20], CS)
        with pytest.raises(ValueError, match="threaded"):
            simulate_dump([idx], DumpConfig(redundancy="parity"))


class TestGeometry:
    def test_effective_geometry_caps(self):
        assert effective_geometry(8, 3, 408) == (8, 2)
        assert effective_geometry(8, 3, 6) == (4, 2)  # d capped at n - m
        assert effective_geometry(8, 1, 6) == (6, 0)  # K=1: no parity
        assert effective_geometry(8, 4, 2) == (1, 1)

    def test_group_structure_covers_all_positions(self):
        groups = group_structure(10, 4, 2)
        covered = [p for members, _h in groups for p in members]
        assert covered == list(range(10))
        for members, holders in groups:
            assert len(holders) == 2
            assert not set(members) & set(holders)

    def test_last_group_holders_wrap(self):
        groups = group_structure(10, 4, 2)
        assert groups[-1] == ([8, 9], [0, 1])

    def test_parity_shard_matches_encoder(self):
        codec = ReedSolomon(6, 4)
        data = [bytes([i]) * 16 for i in range(4)]
        full = codec.encode(data)
        assert parity_shard(codec, 0, data) == full[4]
        assert parity_shard(codec, 1, data) == full[5]


class TestParityDump:
    def test_roundtrip_without_failures(self):
        n = 6
        _reports, cluster = dump_parity(n)
        for rank in range(n):
            restored, report = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)
            assert report.decoded_chunks == 0  # nothing lost yet

    def test_storage_cheaper_than_replication(self):
        """The EC win: parity occupies m/d of the protected data instead of
        m full copies."""
        n, k = 12, 3
        _preports, pcluster = dump_parity(n, k=k, stripe_data=4)
        cfg = DumpConfig(replication_factor=k, chunk_size=CS, f_threshold=4096)
        rcluster = Cluster(n)
        World(n).run(
            lambda comm: dump_output(
                comm, make_rank_dataset(comm.rank), cfg, rcluster
            )
        )
        parity_total = pcluster.total_physical_bytes + sum(
            node.parity_bytes for node in pcluster.nodes
        )
        assert parity_total < rcluster.total_physical_bytes

    def test_parity_held_by_non_members(self):
        n = 8
        _reports, cluster = dump_parity(n, k=3, stripe_data=4)
        for node in cluster.nodes:
            for record in node._parity:
                assert node.node_id not in record.group_members

    def test_restore_decodes_after_failure(self):
        """Kill a rank's node: its unique chunks have no replica anywhere —
        only the cross-rank stripes can bring them back."""
        n = 6
        _reports, cluster = dump_parity(n, k=3, stripe_data=4)
        cluster.fail_node(2)
        restored, report = restore_dataset(cluster, 2)
        assert restored == make_rank_dataset(2)
        assert report.decoded_chunks > 0

    @pytest.mark.parametrize("victims", [(0, 1), (2, 5), (3, 4), (1, 6)])
    def test_survives_any_k_minus_1_failures(self, victims):
        """m = K-1 = 2 parity shards, data spread over d distinct nodes:
        any 2 node losses leave every stripe decodable."""
        n, k = 8, 3
        _reports, cluster = dump_parity(n, k=k, stripe_data=4)
        for v in victims:
            cluster.fail_node(v)
        for rank in range(n):
            restored, _report = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)

    def test_too_many_failures_detected(self):
        """Losing more stripe shards than m must fail loudly, not corrupt:
        kill two members of one stripe group when m=1."""
        n, k = 8, 2  # m = 1
        _reports, cluster = dump_parity(n, k=k, stripe_data=4)
        # Find two co-members of one group from any parity record.
        record = next(
            r for node in cluster.nodes for r in node._parity
            if sum(1 for fp in r.fingerprints if fp) >= 2
        )
        members_with_data = [
            rank for rank, fp in zip(record.group_members, record.fingerprints) if fp
        ]
        cluster.fail_node(members_with_data[0])
        cluster.fail_node(members_with_data[1])
        with pytest.raises(StorageError):
            restore_dataset(cluster, members_with_data[0])

    def test_parity_bundles_travel_as_frames(self, monkeypatch):
        """Every message of the parity phase is bytes-like: the process
        backend ships one frame per holder, not a pickled list."""
        sent = []
        ship = ec_dump.ship_parity

        def spying_ship(comm, *args, **kwargs):
            send = comm.send

            def recording_send(obj, dest, tag=0):
                sent.append(obj)
                return send(obj, dest, tag=tag)

            comm.send = recording_send
            try:
                return ship(comm, *args, **kwargs)
            finally:
                del comm.send

        monkeypatch.setattr(ec_dump, "ship_parity", spying_ship)
        reports, cluster = dump_parity(6)
        assert sum(r.parity_stripes for r in reports) > 0
        assert sent
        assert all(isinstance(obj, (bytes, bytearray, memoryview)) for obj in sent)
        for rank in range(6):
            assert restore_dataset(cluster, rank)[0] == make_rank_dataset(rank)

    def test_k1_is_a_noop(self):
        reports, cluster = dump_parity(3, k=1)
        assert all(node.parity_bytes == 0 for node in cluster.nodes)
        assert all(r.parity_stripes == 0 for r in reports)


class TestProcessBackendParity:
    """A process-backend dump leaves its chunks in the stores as views of
    the ranks' result segments, not ``bytes``: the stripe readers must pad
    and decode them all the same."""

    def test_decode_on_restore_and_repair_read_adopted_chunks(self):
        from repro.repair import repair_cluster, scan_cluster

        n, k = 6, 3
        clusters = {}
        for backend in ("thread", "process"):
            _reports, cluster = dump_parity(n, k=k, backend=backend)
            cluster.fail_node(2)
            restored, report = restore_dataset(cluster, 2)
            assert restored == make_rank_dataset(2) and report.decoded_chunks > 0
            repair = repair_cluster(cluster, k, backend=backend, timeout=60)
            assert repair.reconstructed_chunks > 0 and scan_cluster(cluster, k).clean
            clusters[backend] = cluster
        held = clusters["process"].nodes[0].chunks
        assert any(type(held.get(fp)) is memoryview for fp in held.fingerprints())
        for thread_node, process_node in zip(clusters["thread"].nodes, clusters["process"].nodes):
            fps = sorted(thread_node.chunks.fingerprints())
            assert fps == sorted(process_node.chunks.fingerprints())
            assert thread_node.chunks.get_many(fps) == process_node.chunks.get_many(fps)
            assert thread_node.parity_bytes == process_node.parity_bytes


class TestReconstructChunk:
    def make_stripe(self, cluster, chunks, d=4, m=2, dump_id=0):
        codec = ReedSolomon(d + m, d)
        fps = list(chunks)
        shards = [chunks[fp].ljust(CS, b"\x00") for fp in fps]
        while len(shards) < d:
            fps.append(b"")
            shards.append(b"\x00" * CS)
        records = []
        for j in range(m):
            records.append(ParityRecord(
                dump_id=dump_id,
                stripe_index=0,
                group_members=tuple(range(len(fps))),
                fingerprints=tuple(fps),
                chunk_sizes=tuple(len(chunks.get(fp, b"")) for fp in fps),
                stripe_data=d,
                stripe_parity=m,
                shard_index=j,
                shard=parity_shard(codec, j, shards),
            ))
        return fps, records

    def chunks(self, count):
        return {bytes([i + 1]) * 20: bytes([i]) * (CS - i % 3) for i in range(count)}

    def test_reconstruct_with_padding(self):
        cluster = Cluster(4)
        chunks = self.chunks(3)  # short stripe: one zero pad
        fps, records = self.make_stripe(cluster, chunks, d=4, m=2)
        victim = fps[1]
        for fp in fps[:3]:
            if fp != victim:
                cluster.nodes[1].chunks.put(fp, chunks[fp])
        cluster.nodes[2].put_parity(records[0])
        rebuilt = reconstruct_chunk(cluster, victim, dump_id=0)
        assert rebuilt == chunks[victim]

    def test_two_losses_need_two_shards(self):
        cluster = Cluster(4)
        chunks = self.chunks(4)
        fps, records = self.make_stripe(cluster, chunks, d=4, m=2)
        lost = fps[:2]
        for fp in fps[2:]:
            cluster.nodes[1].chunks.put(fp, chunks[fp])
        cluster.nodes[2].put_parity(records[0])
        cluster.nodes[3].put_parity(records[1])
        for fp in lost:
            assert reconstruct_chunk(cluster, fp, dump_id=0) == chunks[fp]

    def test_no_parity_raises(self):
        cluster = Cluster(2)
        with pytest.raises(StorageError, match="parity"):
            reconstruct_chunk(cluster, b"\x07" * 20, dump_id=0)

    def test_every_failure_subset_agrees_with_the_reference(self):
        """Under every set of failed nodes, for every chunk a stripe covers:
        ``find_stripe`` counts the margin the payload-gathering reference
        counts, ``margin >= 0`` is the reference's "decodable", and exactly
        then ``reconstruct_chunk`` gives back the original bytes."""
        n = 6
        _reports, cluster = dump_parity(n, k=3, stripe_data=4)
        covered = sorted({
            (fp, record.dump_id)
            for node in cluster.nodes
            for record in node._parity
            for fp in record.fingerprints
            if fp != NO_CHUNK
        })
        original = {fp: bytes(cluster.locate_any(fp)) for fp, _dump in covered}
        outcomes = set()
        for failed in failure_subsets(n):
            for node_id in failed:
                cluster.fail_node(node_id)
            for fp, dump_id in covered:
                stripe = find_stripe(cluster, fp, dump_id)
                margin = None if stripe is None else stripe.margin
                assert margin == reference.stripe_margin(cluster, fp, dump_id), failed
                decodable = margin is not None and margin >= 0
                assert decodable == reference.decodable(cluster, fp, dump_id), failed
                if decodable:
                    assert stripe.size == len(original[fp])
                    assert reconstruct_chunk(cluster, fp, dump_id) == original[fp]
                else:
                    with pytest.raises(StorageError):
                        reconstruct_chunk(cluster, fp, dump_id)
                outcomes.add(decodable)
            cluster.revive_all()
        assert outcomes == {True, False}

    def test_insufficient_shards_raises(self):
        cluster = Cluster(3)
        chunks = self.chunks(4)
        _fps, records = self.make_stripe(cluster, chunks, d=4, m=1)
        cluster.nodes[1].put_parity(records[0])  # parity alone: 1 < 4
        with pytest.raises(StorageError, match="shards alive"):
            reconstruct_chunk(cluster, list(chunks)[0], dump_id=0)


class TestECAwareVerification:
    def test_verify_restorable_sees_parity(self):
        from repro.core.restore import verify_restorable

        n = 6
        _reports, cluster = dump_parity(n, k=3, stripe_data=4)
        cluster.fail_node(2)
        # rank 2's unique chunks have no live replica, but verify must agree
        # with restore: the stripes can rebuild them.
        assert verify_restorable(cluster, 2) is None

    def test_verify_reports_dead_stripes(self):
        from repro.core.restore import verify_restorable

        n, k = 8, 2  # m = 1: two co-member losses kill a stripe
        _reports, cluster = dump_parity(n, k=k, stripe_data=4)
        record = next(
            r for node in cluster.nodes for r in node._parity
            if sum(1 for fp in r.fingerprints if fp) >= 2
        )
        members = [
            rank for rank, fp in zip(record.group_members, record.fingerprints) if fp
        ]
        cluster.fail_node(members[0])
        cluster.fail_node(members[1])
        reason = verify_restorable(cluster, members[0])
        assert reason is not None
        # Either the stripe is short of shards or (k=2) the manifest and its
        # single replica died together — both are honest unrecoverability.
        assert "stripe" in reason or "manifest" in reason

    def test_every_failure_subset_agrees_with_the_reference(self):
        """``verify_restorable`` and the failure audit call a rank
        restorable exactly when a manifest copy survives and every chunk has
        a live holder or a stripe the reference can decode."""
        from repro.core.restore import verify_restorable

        n = 6
        _reports, cluster = dump_parity(n, k=3, stripe_data=4)
        outcomes = set()
        for failed in failure_subsets(n):
            for node_id in failed:
                cluster.fail_node(node_id)
            expected = []
            for rank in range(n):
                holders = cluster.manifest_holders(rank, 0)
                manifest = holders and cluster.nodes[holders[0]].get_manifest(rank, 0)
                restorable = bool(holders) and all(
                    cluster.locate(fp) or reference.decodable(cluster, fp, 0)
                    for fp in set(manifest.fingerprints)
                )
                assert (verify_restorable(cluster, rank) is None) == restorable, failed
                if restorable:
                    expected.append(rank)
                outcomes.add(restorable)
            audit = FailureInjector(cluster).audit(0)
            assert audit.recoverable_ranks == expected, failed
            cluster.revive_all()
        assert outcomes == {True, False}
