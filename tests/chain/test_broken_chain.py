"""Regression suite: a chain delta is never silently restorable.

Before the chain layer, every consumer of a dump id — ``restore_dataset``
and the collective ``load_input`` — assumed any manifest describes a
complete dataset.  A chain delta holds one epoch's dirty chunks only:
reassembling it as a full dataset is silent corruption (a short dataset of
concatenated dirty chunks).  These tests pin the fix — every such path
surfaces a typed
:class:`~repro.chain.errors.ChainBrokenError` instead — plus the
chain-level failure mode: a delta whose parent chunks were lost reports
the ancestor epoch that wrote them.
"""

import numpy as np
import pytest

from repro.apps.memory import MemoryRegistry
from repro.apps.mutating import MutatingWorkload
from repro.chain import ChainBrokenError, ChainError, ChainManager
from repro.core.collective_restore import load_input
from repro.core.config import DumpConfig
from repro.core.restore import restore_dataset
from repro.core.runner import run_collective
from repro.storage.local_store import Cluster

N = 2
CHUNK = 1024


def chained_cluster(depth=2, seed=9):
    cluster = Cluster(N)
    config = DumpConfig(replication_factor=2, chunk_size=CHUNK)
    workload = MutatingWorkload(seed=seed, chunk_size=CHUNK, dirty_frac=0.2)
    manager = ChainManager(cluster, config, N)
    manager.chain_dump(workload, kind="full")
    for _ in range(depth):
        workload.advance()
        manager.chain_dump(workload)
    return cluster, config, manager, workload


def delta_dump_id(manager):
    node = manager.tip()
    assert node.kind == "delta"
    return node.dump_id


class TestRestorePathsRejectDeltas:
    def test_restore_dataset_raises_typed(self):
        cluster, config, manager, _ = chained_cluster()
        with pytest.raises(ChainBrokenError, match="chain delta"):
            restore_dataset(cluster, 0, delta_dump_id(manager))

    def test_collective_load_input_aborts_typed(self):
        cluster, config, manager, _ = chained_cluster()
        dump_id = delta_dump_id(manager)

        def rank_main(comm):
            with pytest.raises(ChainBrokenError, match="chain delta"):
                load_input(comm, cluster, config, dump_id)
            return "aborted"

        results, _ = run_collective(N, rank_main, cluster=cluster)
        assert results == ["aborted"] * N

    def test_full_dumps_still_restore(self):
        cluster, config, manager, workload = chained_cluster()
        full_id = manager.nodes[0].dump_id
        dataset, _ = restore_dataset(cluster, 0, full_id)
        want = workload.at_epoch(0).build_dataset(0, N).to_bytes()
        assert dataset.to_bytes() == want


class TestLostParentChunks:
    def test_broken_error_names_writer_epoch_and_missing(self):
        cluster, config, manager, _ = chained_cluster(depth=3)
        # lose a chunk the BASE full wrote, still inherited at the tip
        tip_fps = set(manager.resolved_fps(3, 0))
        base_fps = [
            fp for fp in manager.nodes[0].fps[0]
            if fp in tip_fps
            and manager._writer_epoch(3, fp) == 0
        ]
        assert base_fps
        victim = base_fps[0]
        for node in cluster.nodes:
            node.chunks.discard(victim)
        with pytest.raises(ChainBrokenError) as excinfo:
            manager.restore_epoch(0, 3)
        err = excinfo.value
        assert err.epoch == 3
        assert err.writer_epoch == 0
        assert err.missing == (victim,)
        assert isinstance(err, ChainError)
        assert str(err) == (
            "epoch 3 of rank 0 is not restorable: 1 chunk(s) lost every "
            "live holder (first written by epoch 0)"
        )
        # the other rank never resolved that chunk
        if victim not in manager.resolved_fps(3, 1):
            manager.restore_epoch(1, 3)

    def test_a_lost_chunk_fails_before_any_byte_is_returned(self, monkeypatch):
        """More lost than the error samples: ``missing`` is the first eight
        in fingerprint order and names the newest writer of the first."""
        cluster, config, manager, _ = chained_cluster(depth=3)
        victims = sorted(set(manager.resolved_fps(3, 0)))[:11]
        for node in cluster.nodes:
            for fp in victims:
                node.chunks.discard(fp)
        from repro.core import restore

        cut = []
        monkeypatch.setattr(
            restore, "cut_segments", lambda *a: cut.append(a) or []
        )
        with pytest.raises(ChainBrokenError, match="11 chunk") as excinfo:
            manager.restore_epoch(0, 3)
        assert cut == []  # nothing was reassembled
        assert excinfo.value.missing == tuple(victims[:8])
        assert excinfo.value.writer_epoch == manager._writer_epoch(3, victims[0])

    def test_a_lost_chunk_a_delta_held_names_the_epoch_that_shipped_it(self):
        """Epoch 3 copies rank 0's chunk 1 over its chunk 0.  The parent
        resolves to those bytes, so epoch 3 names the chunk but holds it
        and ships nothing; its loss names epoch 1, which shipped it."""
        rng = np.random.RandomState(3)
        regions = [
            np.frombuffer(rng.bytes(8 * CHUNK), np.uint8).copy() for _ in range(N)
        ]
        registry = MemoryRegistry()
        for rank, region in enumerate(regions):
            registry.register(rank, "state", region)
        cluster = Cluster(N)
        manager = ChainManager(
            cluster, DumpConfig(replication_factor=2, chunk_size=CHUNK), N
        )
        manager.chain_dump(registry, kind="full")
        regions[0][CHUNK:2 * CHUNK] = np.frombuffer(rng.bytes(CHUNK), np.uint8)
        manager.chain_dump(registry)  # epoch 1 ships the new chunk
        regions[1][:CHUNK] = np.frombuffer(rng.bytes(CHUNK), np.uint8)
        manager.chain_dump(registry)  # epoch 2 does not touch it
        regions[0][:CHUNK] = regions[0][CHUNK:2 * CHUNK]
        result = manager.chain_dump(registry)
        fp = manager.nodes[1].fps[0][0]
        assert manager.nodes[3].fps == [[fp], []]
        assert sum(report.n_chunks for report in result.reports) == 0
        assert manager._writer_epoch(3, fp) == 1
        for node in cluster.nodes:
            node.chunks.discard(fp)
        with pytest.raises(ChainBrokenError) as excinfo:
            manager.restore_epoch(0, 3)
        assert (excinfo.value.writer_epoch, excinfo.value.missing) == (1, (fp,))
        assert manager.verify_epoch(0, 3) == (
            f"chunk {fp.hex()[:12]}... (written by epoch 1) has no live holder"
        )

    def test_a_healthy_restore_plans_once_and_locates_nothing(self, monkeypatch):
        """Work counts: one ``has_many`` sweep per live node (the restore's
        own plan), no per-fingerprint ``locate`` before it."""
        cluster, config, manager, workload = chained_cluster(depth=3)
        cluster.fail_node(1)
        sweeps = {node.node_id: 0 for node in cluster.nodes}
        for node in cluster.nodes:
            real = node.chunks.has_many

            def counted(fps, _real=real, _id=node.node_id):
                sweeps[_id] += 1
                return _real(fps)

            monkeypatch.setattr(node.chunks, "has_many", counted)
        located = []
        monkeypatch.setattr(
            cluster, "locate", lambda fp: located.append(fp) or []
        )
        monkeypatch.setattr(
            cluster, "locate_many", lambda fps: located.extend(fps) or []
        )
        dataset, report = manager.restore_epoch(1, 3)
        assert dataset.to_bytes() == (
            workload.at_epoch(3).build_dataset(1, N).to_bytes()
        )
        assert sweeps == {0: 1, 1: 0}
        assert located == []

    def test_verify_epoch_degrades_before_restore_garbage(self):
        cluster, config, manager, _ = chained_cluster(depth=2)
        victim = manager.resolved_fps(2, 1)[3]
        for node in cluster.nodes:
            node.chunks.discard(victim)
        assert manager.verify_epoch(1, 2) is not None

    def test_replicated_loss_within_k_is_transparent(self):
        """Losing one replica of a parent chunk is not a broken chain."""
        cluster, config, manager, workload = chained_cluster(depth=2)
        victim = manager.resolved_fps(2, 0)[0]
        holders = cluster.locate(victim)
        cluster.nodes[holders[0]].chunks.discard(victim)
        dataset, _ = manager.restore_epoch(0, 2)
        want = workload.at_epoch(2).build_dataset(0, N).to_bytes()
        assert dataset.to_bytes() == want
