"""Unit suite for :class:`repro.chain.ChainManager`.

The algebraic/property layer lives in ``test_chain_algebra.py``; here every
manager operation is exercised directly — dump kinds and promotion, epoch
resolution, time-travel restore, prune/pin/sweep, compaction, persistence
and the error surface.
"""

import copy
import os

import numpy as np
import pytest

from repro.apps.memory import MemoryRegistry
from repro.apps.mutating import MutatingWorkload
from repro.chain import (
    ChainBrokenError,
    ChainManager,
    ChainStateError,
    chunk_slices,
)
from repro.core.config import DumpConfig
from repro.dst.invariants import (
    check_chain_refcounts,
    check_chain_structure,
    recount_references,
)
from repro.repair import repair_cluster, scan_cluster
from repro.simmpi.trace import Trace
from repro.storage.chain_codec import ChainCodecError
from repro.storage.local_store import Cluster
from repro.svc.index import GlobalDedupIndex

N = 3
CHUNK = 1024


def make_chain(n=N, depth=0, seed=11, dirty_frac=0.15, backend=None, **cfg):
    cluster = Cluster(n)
    config = DumpConfig(replication_factor=2, chunk_size=CHUNK, **cfg)
    workload = MutatingWorkload(seed=seed, chunk_size=CHUNK, dirty_frac=dirty_frac)
    manager = ChainManager(cluster, config, n, backend=backend)
    manager.chain_dump(workload, kind="full")
    for _ in range(depth):
        workload.advance()
        manager.chain_dump(workload)
    return manager, workload


def oracle(workload, epoch, rank, n=N):
    return workload.at_epoch(epoch).build_dataset(rank, n).to_bytes()


def lose_rank_one(n=4, **cfg):
    """A degraded full that loses rank 1 outright: node 1 was dead when the
    dump began, so rank 1's one manifest replica goes to its partner (node
    2 without the shuffle), and that node dies in the write phase."""
    from repro.storage.failures import FailureInjector

    cluster = Cluster(n)
    config = DumpConfig(
        replication_factor=2, chunk_size=CHUNK, shuffle=False, **cfg
    )
    manager = ChainManager(cluster, config, n)
    workload = MutatingWorkload(seed=11, chunk_size=CHUNK, shared_base=False)
    cluster.fail_node(1)
    hook = FailureInjector(cluster).mid_dump_hook(2, "write", rank=2)
    return manager, workload, hook


class TestLostRank:
    @pytest.mark.parametrize("chunking", ["fixed", "cdc"])
    def test_degraded_full_that_lost_a_rank_commits(self, chunking):
        """The other ranks' chunks are stored under the dump id by then, so
        the epoch commits (before PR 23 it did; in between it raised after
        the collective).  The lost rank restores as a typed loss, never as
        wrong or empty bytes, and the index does not bill what nobody
        stored until somebody stores it."""
        n = 4
        manager, workload, hook = lose_rank_one(n, chunking=chunking)
        result = manager.chain_dump(workload, kind="full", phase_hook=hook)
        assert (result.epoch, result.kind) == (0, "full")
        assert not any(
            node.has_manifest(1, result.dump_id)
            for node in manager.cluster.nodes
        )
        lost = set(manager.nodes[0].fps[1])
        assert lost and result.total_chunks == sum(
            map(len, manager.nodes[0].fps)
        )
        for rank in (0, 2, 3):
            dataset, _report = manager.restore_epoch(rank, 0)
            assert dataset.to_bytes() == oracle(workload, 0, rank, n)
        with pytest.raises(ChainBrokenError, match="rank 1"):
            manager.restore_epoch(1, 0)
        assert manager.verify_epoch(1, 0) is not None
        assert {
            fp for fp, entry in manager.index.items() if not entry.size
        } == lost
        assert recount_references([manager]) == {
            fp: dict(entry.refs) for fp, entry in manager.index.items()
        }
        # A later dump that does store them is billed for them, once.
        billed = manager.index.unique_bytes
        from repro.repair import repair_cluster

        repair_cluster(manager.cluster, 2)
        again = manager.chain_dump(workload, kind="full")
        assert again.new_unique_chunks == len(lost)
        assert manager.index.unique_bytes == billed + again.new_unique_bytes
        assert all(entry.size for _fp, entry in manager.index.items())
        assert manager.index.referenced_bytes("chain") == (
            manager.index.unique_bytes
        )
        # ... and content-addressed: epoch 0 is whole again with it.
        for epoch in (0, 1):
            dataset, _report = manager.restore_epoch(1, epoch)
            assert dataset.to_bytes() == oracle(workload, 0, 1, n)

    def test_a_dump_that_is_not_degraded_still_raises(self, monkeypatch):
        """When the reports show no dead node and no dropped commit nothing
        may be lost: a rank that left no manifest anywhere is a bug, named
        by rank, and commits nothing."""
        from repro.storage.local_store import NodeStorage

        manager, workload = make_chain(depth=1)
        before = (dict(manager.nodes), manager.next_epoch, len(manager.index))
        has_manifest = NodeStorage.has_manifest
        monkeypatch.setattr(
            NodeStorage, "has_manifest",
            lambda self, rank, dump_id: rank != 1
            and has_manifest(self, rank, dump_id),
        )
        with pytest.raises(ChainStateError, match="rank 1 left no manifest"):
            manager.chain_dump(workload, kind="full")
        assert before == (
            dict(manager.nodes), manager.next_epoch, len(manager.index)
        )


PROBE_CHUNK = 4096
REGION = 64 * PROBE_CHUNK


class Probe:
    """An application checkpoint: three 256 KiB regions per rank in a
    :class:`MemoryRegistry` (4 KiB chunks) under a base full.  A dump keeps
    every rank's bytes for :meth:`assert_restores`; a ``dirty`` one first
    rewrites the first three chunks of every rank's middle region."""

    def __init__(self, n=4, k=3, registry=None):
        self.n = n
        self.rng = np.random.RandomState(5)
        self.registry = registry if registry is not None else MemoryRegistry()
        self.regions = [{} for _ in range(n)]
        for rank in range(n):
            for name in "abc":
                self.register(rank, name, self.fresh(REGION))
        self.manager = ChainManager(
            Cluster(n),
            DumpConfig(replication_factor=k, chunk_size=PROBE_CHUNK), n,
        )
        self.states = []
        self.dump(kind="full", dirty=False)

    def fresh(self, nbytes):
        return np.frombuffer(self.rng.bytes(nbytes), np.uint8).copy()

    def register(self, rank, name, region):
        self.registry.register(rank, name, region)
        self.regions[rank][name] = region

    def dump(self, kind="delta", dirty=True):
        if dirty:
            for rank in range(self.n):
                self.regions[rank]["b"][:3 * PROBE_CHUNK] = self.fresh(3 * PROBE_CHUNK)
        result = self.manager.chain_dump(self.registry, kind=kind)
        self.states.append([
            self.registry.build_dataset(rank, self.n).to_bytes()
            for rank in range(self.n)
        ])
        return result

    def assert_restores(self, manager=None):
        manager = manager or self.manager
        for epoch in manager.live_epochs():
            for rank in range(self.n):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == self.states[epoch][rank], (epoch, rank)
        assert check_chain_structure(manager, 0) == []
        assert check_chain_refcounts([manager], 0) == []

    # -- the reshapes, all on rank 0 ----------------------------------------------
    def register_64k(self):
        self.register(0, "d", self.fresh(16 * PROBE_CHUNK))

    def unregister_first(self):
        self.registry.unregister(0, "a")

    def grow_middle_64k(self):
        b, c = self.regions[0]["b"], self.regions[0]["c"]
        for name in "bc":
            self.registry.unregister(0, name)
        self.register(0, "b", np.concatenate([b, self.fresh(16 * PROBE_CHUNK)]))
        self.register(0, "c", c)


def shipped(result):
    return sum(report.n_chunks for report in result.reports)


class TestChunkSlices:
    def test_tail_chunks_short(self):
        slices = chunk_slices([CHUNK * 2 + 100, 50], CHUNK)
        assert slices == [
            (0, 0, CHUNK), (0, CHUNK, CHUNK), (0, 2 * CHUNK, 100), (1, 0, 50)
        ]

    def test_empty_geometry(self):
        assert chunk_slices([], CHUNK) == []
        assert chunk_slices([], CHUNK, []) == []

    def test_rows_of_given_positions_are_rows_of_the_table(self):
        # empty segments in front, between and behind; a short tail; any order
        lengths = [0, CHUNK * 2 + 100, 0, 0, 50, CHUNK, 0]
        table = chunk_slices(lengths, CHUNK)
        assert len(table) == 5
        for positions in ([], [0], [4], [3, 0, 2, 2], range(5)):
            assert chunk_slices(lengths, CHUNK, positions) == [
                table[p] for p in positions
            ]


class TestDump:
    def test_first_dump_promotes_to_full(self):
        cluster = Cluster(N)
        config = DumpConfig(replication_factor=2, chunk_size=CHUNK)
        manager = ChainManager(cluster, config, N)
        workload = MutatingWorkload(seed=1, chunk_size=CHUNK)
        result = manager.chain_dump(workload, kind="delta")
        assert result.kind == "full"
        assert result.promoted
        assert result.epoch == 0
        assert manager.nodes[0].parent_epoch is None

    def test_delta_dumps_only_dirty_chunks(self):
        manager, workload = make_chain(depth=0)
        workload.advance()
        result = manager.chain_dump(workload)
        assert result.kind == "delta" and not result.promoted
        n_chunks = len(chunk_slices(workload.segment_lengths, CHUNK))
        expected = len(workload._mutated_indices(0, 1)) * N
        assert result.changed_chunks == expected
        assert result.total_chunks == N * n_chunks
        assert result.delta_fraction < 1.0

    def test_geometry_change_promotes(self):
        """A geometry change promotes nothing: a grown dataset stays a delta
        that ships only the chunks its parent does not resolve to, and every
        epoch restores."""
        manager, workload = make_chain(depth=1)
        grown = MutatingWorkload(
            seed=workload.seed,
            segment_lengths=[n + CHUNK for n in workload.segment_lengths],
            chunk_size=CHUNK,
        )
        grown.epoch = workload.epoch + 1
        parent = manager.resolved_distinct(1)
        result = manager.chain_dump(grown, kind="delta")
        assert (result.kind, result.promoted) == ("delta", False)
        new = [
            fp for column in manager.nodes[2].fps for fp in column
            if fp not in parent
        ]
        assert 0 < shipped(result) == len(new) < result.changed_chunks
        for epoch, source in ((0, workload), (1, workload), (2, grown)):
            for rank in range(N):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(source, epoch, rank)
        assert check_chain_refcounts([manager], 0) == []

    @pytest.mark.parametrize("change, shipped_chunks, entries, total", [
        ("register_64k", 28, 28, 784),
        ("unregister_first", 12, 137, 704),
        ("grow_middle_64k", 28, 92, 784),
    ])
    def test_a_reshaped_registry_ships_only_new_content(
        self, change, shipped_chunks, entries, total
    ):
        """One rank's reshape beside three rewritten chunks per rank: the
        column entries follow the shift, the collective gets the new bytes."""
        probe = Probe()
        getattr(probe, change)()
        result = probe.dump()
        assert (result.kind, result.promoted) == ("delta", False)
        assert (shipped(result), result.changed_chunks, result.total_chunks) == (
            shipped_chunks, entries, total
        )
        assert sum(r.hashed_bytes for r in result.reports) == 0
        probe.assert_restores()

    def test_a_dropped_region_reported_clean_restores_its_neighbours(self):
        """Dirty ranges name segments by index: once the middle region is
        gone, "segment 1 is clean" speaks of other bytes, so the cache must
        hash the reshaped dataset whole instead of trusting it."""

        class CleanRegistry(MemoryRegistry):
            def dirty_regions(self, rank, n_ranks):
                return [[] for _ in self.names(rank)]

        probe = Probe(registry=CleanRegistry())
        probe.dump(dirty=False)  # warms the caches
        for rank in range(probe.n):
            probe.registry.unregister(rank, "b")
        probe.dump(dirty=False)
        probe.assert_restores()

    def test_a_moved_chunk_whose_every_holder_is_dead_is_shipped_again(self):
        probe = Probe(k=2)
        cluster = probe.manager.cluster
        probe.unregister_first()
        # rank 0's regions b and c move to the front; b's first three chunks
        # are rewritten by the dump, the other 125 are the base's bytes
        moved = probe.manager.nodes[0].fps[0][64 + 3:]
        for node_id in cluster.locate(moved[-1]):
            cluster.fail_node(node_id)
        homeless = sum(not cluster.locate(fp) for fp in moved)
        assert homeless > 0
        result = probe.dump()
        assert (result.kind, shipped(result)) == ("delta", 12 + homeless)
        cluster.revive_all()
        probe.assert_restores()

    def test_a_chunk_only_a_cut_off_epoch_resolves_to_is_shipped_again(self):
        """Held means the *parent* resolves to it, so a manifest on the new
        epoch's own path names it.  Here only the base does, and compaction
        cut the base off the path: the chunk is shipped again, and after
        the base is pruned repair still protects it."""
        probe = Probe()
        cluster = probe.manager.cluster
        base = [bytes(probe.regions[r]["b"][:3 * PROBE_CHUNK]) for r in range(probe.n)]
        probe.dump()
        probe.dump()
        probe.manager.compact(2)
        for rank in range(probe.n):
            probe.regions[rank]["b"][:3 * PROBE_CHUNK] = np.frombuffer(base[rank], np.uint8)
        result = probe.dump(dirty=False)
        assert (result.changed_chunks, shipped(result)) == (12, 12)
        fp = probe.manager.nodes[0].fps[0][64]  # rank 0's b[0] at the base
        for epoch in (0, 1):
            probe.manager.prune(epoch)
        assert probe.manager.live_epochs() == [2, 3]
        cluster.fail_node(cluster.locate(fp)[0])
        assert fp in scan_cluster(cluster, 3).fps
        repair_cluster(cluster, 3)
        assert len(cluster.locate(fp)) == 3
        probe.assert_restores()

    def test_prune_compact_and_from_blob_after_a_move(self):
        probe = Probe()
        cluster = probe.manager.cluster
        probe.unregister_first()
        probe.dump()
        probe.dump()
        probe.manager.prune(0)
        probe.assert_restores()
        cluster.fail_node(1)
        repair_cluster(cluster, 3)
        probe.assert_restores()
        probe.manager.compact(1)
        probe.assert_restores()
        rebuilt = ChainManager.from_blob(
            probe.manager.to_blob(), cluster,
            DumpConfig(replication_factor=3, chunk_size=PROBE_CHUNK),
        )
        probe.assert_restores(rebuilt)

    def test_cdc_delta_promotes_to_a_full_that_restores(self):
        """The diff is positional on the fixed grid, while the ranks cut
        content-defined chunks: a CDC delta is dumped as a full, so every
        epoch restores byte-equal and the index sizes no chunk as 0."""
        n = 4
        config = DumpConfig(replication_factor=2, chunking="cdc")
        manager = ChainManager(Cluster(n), config, n)
        workload = MutatingWorkload(seed=1, dirty_frac=0.3)
        manager.chain_dump(workload, kind="full")
        workload.advance()
        result = manager.chain_dump(workload)
        assert (result.kind, result.promoted) == ("full", True)
        assert result.changed_chunks == result.total_chunks
        for epoch in (0, 1):
            for rank in range(n):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank, n)
        assert all(entry.size > 0 for _fp, entry in manager.index.items())

    def test_a_delta_is_hashed_once_by_the_manager(self):
        """A delta's ranks are handed the fingerprints the manager diffed
        and hash nothing; a full's ranks hash every byte they dump."""
        manager = ChainManager(
            Cluster(N), DumpConfig(replication_factor=2, chunk_size=CHUNK), N
        )
        workload = MutatingWorkload(seed=3, chunk_size=CHUNK)
        full = manager.chain_dump(workload, kind="full")
        hashed = sum(r.hashed_bytes for r in full.reports)
        assert hashed == sum(len(oracle(workload, 0, rank)) for rank in range(N))
        for _ in range(2):
            workload.advance()
            delta = manager.chain_dump(workload)
            assert delta.kind == "delta" and delta.changed_chunks > 0
            assert sum(r.n_chunks for r in delta.reports) == delta.changed_chunks
            assert sum(r.hashed_bytes for r in delta.reports) == 0
        for epoch in range(3):
            for rank in range(N):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)

    def test_dump_ids_monotonic_and_recorded(self):
        manager, _ = make_chain(depth=3)
        dump_ids = [manager.nodes[e].dump_id for e in sorted(manager.nodes)]
        assert dump_ids == sorted(dump_ids)
        assert len(set(dump_ids)) == len(dump_ids)

    def test_new_unique_accounting_shrinks_for_deltas(self):
        manager, workload = make_chain(depth=0)
        full_new = manager.index.unique_bytes
        assert full_new > 0
        workload.advance()
        result = manager.chain_dump(workload)
        assert 0 < result.new_unique_bytes < full_new

    def test_bad_kind_rejected(self):
        manager, workload = make_chain()
        with pytest.raises(ChainStateError, match="kind"):
            manager.chain_dump(workload, kind="incremental")

    @pytest.mark.parametrize("kind", ["delta", "full"])
    def test_a_dump_whose_collective_raises_leaves_the_manager_as_it_was(self, kind):
        """... and the next delta still carries the chunks that changed
        during the failed epoch, which only the fingerprint cache saw."""
        from repro.dst.invariants import check_chain_refcounts
        from repro.simmpi.errors import SimMPIError

        manager, workload = make_chain(depth=2)
        assert manager._tip[0] == 2  # steady state: the tip is carried

        def state():
            epoch, depth, columns = manager._tip
            return (
                manager.next_epoch,
                [(e, copy.deepcopy(vars(node))) for e, node in sorted(manager.nodes.items())],
                [(f, e.size, e.first_writer, dict(e.refs)) for f, e in manager.index.items()],
                manager.index.unique_bytes,
                (epoch, depth, [list(column) for column in columns]),
            )

        before = state()

        def hook(phase, rank):
            if rank == 1:
                raise RuntimeError("boom")

        workload.advance()  # workload epoch 3: its dump fails
        failed_changes = {
            rank: set(workload._mutated_indices(rank, 3)) for rank in range(N)
        }
        with pytest.raises((SimMPIError, RuntimeError)):
            manager.chain_dump(workload, kind=kind, phase_hook=hook)
        # (the dump-id counter did move: ids are never handed out twice)
        assert state() == before

        workload.advance()  # workload epoch 4 becomes chain epoch 3
        result = manager.chain_dump(workload)
        assert (result.epoch, result.kind) == (3, "delta")
        for rank in range(N):
            declared = set(workload._mutated_indices(rank, 4))
            # the failed epoch's chunks were not declared dirty this time ...
            assert failed_changes[rank] - declared
            # ... and are in the delta all the same
            assert set(manager.nodes[3].positions[rank]) == failed_changes[rank] | declared
        for chain_epoch, workload_epoch in ((0, 0), (1, 1), (2, 2), (3, 4)):
            for rank in range(N):
                dataset, _ = manager.restore_epoch(rank, chain_epoch)
                assert dataset.to_bytes() == oracle(workload, workload_epoch, rank)
        assert check_chain_refcounts([manager], 0) == []

    def test_parity_config_rejected(self):
        cluster = Cluster(N)
        config = DumpConfig(
            replication_factor=2, chunk_size=CHUNK, redundancy="parity"
        )
        manager = ChainManager(cluster, config, N)
        workload = MutatingWorkload(seed=11, chunk_size=CHUNK)
        # a full is the ordinary parity dump; only a delta cannot be one
        assert manager.chain_dump(workload, kind="full").kind == "full"
        workload.advance()
        before = (manager.next_epoch, len(manager.index), dict(manager._caches))
        with pytest.raises(ChainStateError, match="parity"):
            manager.chain_dump(workload, kind="delta")
        assert (manager.next_epoch, len(manager.index), dict(manager._caches)) == before
        cluster.fail_node(1)
        for rank in range(N):
            dataset, report = manager.restore_epoch(rank, 0)
            assert dataset.to_bytes() == oracle(workload, 0, rank)


class TestResolveAndRestore:
    def test_restore_every_epoch_every_rank(self):
        manager, workload = make_chain(depth=4)
        for epoch in range(5):
            for rank in range(N):
                dataset, report = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)
                assert report.total_bytes == dataset.nbytes

    def test_restore_matches_per_chunk_reference(self):
        from tests.core import reference

        manager, workload = make_chain(depth=2)
        for rank in range(N):
            dataset, report = manager.restore_epoch(rank, 2)
            ref_dataset, ref_report = reference.restore_from_manifest(
                manager.cluster, rank, manager.synthetic_manifest(rank, 2)
            )
            assert dataset.to_bytes() == ref_dataset.to_bytes()
            assert vars(report) == vars(ref_report)

    def test_resolved_fps_newest_wins(self):
        manager, workload = make_chain(depth=2)
        base = manager.nodes[0].fps[0]
        resolved = manager.resolved_fps(2, 0)
        assert len(resolved) == len(base)
        changed = dict(zip(
            manager.nodes[2].positions[0], manager.nodes[2].fps[0]
        ))
        for pos, fp in changed.items():
            assert resolved[pos] == fp

    def test_unknown_epoch(self):
        manager, _ = make_chain()
        with pytest.raises(ChainStateError, match="unknown"):
            manager.restore_epoch(0, 99)

    def test_depth_of(self):
        manager, _ = make_chain(depth=3)
        assert [manager.depth_of(e) for e in range(4)] == [1, 2, 3, 4]

    def test_verify_epoch_clean(self):
        manager, _ = make_chain(depth=2)
        assert manager.verify_epoch(0, 2) is None


class TestPrune:
    def test_prune_tip_without_descendants_drops_everything_it_owns(self):
        manager, workload = make_chain(depth=1)
        result = manager.prune(1)
        assert not result.pinned
        assert 1 not in manager.nodes  # swept: nothing depends on it
        # epoch 0 still restorable
        for rank in range(N):
            dataset, _ = manager.restore_epoch(rank, 0)
            assert dataset.to_bytes() == oracle(workload, 0, rank)

    def test_prune_base_pins_and_keeps_descendants_restorable(self):
        manager, workload = make_chain(depth=3)
        result = manager.prune(0)
        assert result.pinned
        assert manager.nodes[0].retired
        with pytest.raises(ChainStateError, match="pruned"):
            manager.restore_epoch(0, 0)
        for epoch in (1, 2, 3):
            for rank in range(N):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)

    def test_refcount_conservation_after_gc(self):
        manager, _ = make_chain(depth=4)
        manager.prune(0)
        manager.prune(2)
        # recount: the one owner holds a reference per live epoch that
        # resolves to the chunk
        expected = {}
        for epoch in manager.live_epochs():
            for fp in manager.resolved_distinct(epoch):
                expected[fp] = expected.get(fp, 0) + 1
        assert len(manager.index) == len(expected)
        assert max(expected.values()) == len(manager.live_epochs()) == 3
        for fp, count in expected.items():
            assert manager.index.get(fp).refs == {manager.owner: count}
        # every stored chunk is referenced (no leaks)
        stored = set()
        for node in manager.cluster.nodes:
            stored.update(node.chunks.fingerprints())
        assert stored == set(expected)

    def test_double_prune_rejected(self):
        manager, _ = make_chain(depth=2)
        manager.prune(0)
        with pytest.raises(ChainStateError, match="already"):
            manager.prune(0)

    def test_prune_cascade_sweeps_retired_ancestors(self):
        manager, _ = make_chain(depth=2)
        manager.prune(0)
        manager.prune(1)
        assert set(manager.nodes) >= {2}
        manager.prune(2)
        assert manager.nodes == {}
        assert len(manager.index) == 0
        for node in manager.cluster.nodes:
            assert not list(node.chunks.fingerprints())
            assert not node.manifest_keys()

    def test_gc_bytes_freed_accounting(self):
        manager, _ = make_chain(depth=2)
        before = sum(
            node.chunks.nbytes_of(fp)
            for node in manager.cluster.nodes
            for fp in node.chunks.fingerprints()
        )
        result = manager.prune(2)
        after = sum(
            node.chunks.nbytes_of(fp)
            for node in manager.cluster.nodes
            for fp in node.chunks.fingerprints()
        )
        assert result.bytes_freed > 0
        # replicated chunks: physical bytes freed counts every replica
        assert before - after == result.bytes_freed


class TestCompact:
    def test_compact_equals_full(self):
        manager, workload = make_chain(depth=3)
        result = manager.compact(3)
        assert result.compacted
        node = manager.nodes[3]
        assert node.kind == "full" and node.parent_epoch is None
        for rank in range(N):
            dataset, _ = manager.restore_epoch(rank, 3)
            assert dataset.to_bytes() == oracle(workload, 3, rank)

    def test_compact_base_full_is_noop(self):
        manager, _ = make_chain(depth=1)
        result = manager.compact(0)
        assert not result.compacted
        assert result.new_dump_id == result.old_dump_id

    def test_compact_reanchors_descendants(self):
        manager, workload = make_chain(depth=3)
        manager.compact(1)
        # 2 and 3 still chain onto epoch 1 (now a full) and restore clean
        assert manager.nodes[2].parent_epoch == 1
        for epoch in (2, 3):
            for rank in range(N):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)

    def test_compact_then_prune_ancestors_sweeps(self):
        manager, workload = make_chain(depth=3)
        manager.compact(3)
        for epoch in (0, 1, 2):
            manager.prune(epoch)
        assert set(manager.nodes) == {3}
        for rank in range(N):
            dataset, _ = manager.restore_epoch(rank, 3)
            assert dataset.to_bytes() == oracle(workload, 3, rank)

    def test_compact_pruned_epoch_rejected(self):
        manager, _ = make_chain(depth=1)
        manager.prune(0)
        with pytest.raises(ChainStateError, match="pruned"):
            manager.compact(0)


class TestBrokenChain:
    def test_lost_ancestor_chunk_is_typed_error(self):
        manager, _ = make_chain(depth=3)
        fp = manager.resolved_fps(3, 0)[0]
        for node in manager.cluster.nodes:
            node.chunks.discard(fp)
        with pytest.raises(ChainBrokenError) as excinfo:
            manager.restore_epoch(0, 3)
        assert excinfo.value.epoch == 3
        assert excinfo.value.missing
        assert excinfo.value.writer_epoch in range(4)

    def test_verify_epoch_names_writer(self):
        manager, workload = make_chain(depth=2)
        # kill a chunk epoch 2 itself wrote
        fp = sorted(manager.nodes[2].written_fingerprints())[0]
        for node in manager.cluster.nodes:
            node.chunks.discard(fp)
        reason = manager.verify_epoch(0, 2)
        if reason is not None:  # fp may belong to another rank's column
            assert "epoch 2" in reason

    def test_node_failure_within_replication_still_restores(self):
        manager, workload = make_chain(depth=2)
        manager.cluster.fail_node(0)
        for epoch in range(3):
            for rank in range(N):
                dataset, _ = manager.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)


class TestPersistence:
    def test_blob_round_trip_preserves_chain(self):
        manager, workload = make_chain(depth=3)
        manager.prune(0)
        blob = manager.to_blob()
        clone = ChainManager.from_blob(
            blob, manager.cluster, manager.config
        )
        assert clone.live_epochs() == manager.live_epochs()
        assert clone.next_epoch == manager.next_epoch
        assert set(clone.nodes) == set(manager.nodes)
        for epoch in clone.live_epochs():
            for rank in range(N):
                dataset, _ = clone.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)

    def test_blob_rebuilds_refcounts(self):
        manager, _ = make_chain(depth=2)
        clone = ChainManager.from_blob(
            manager.to_blob(), manager.cluster, manager.config,
            index=GlobalDedupIndex(),
        )
        assert len(clone.index) == len(manager.index)
        # GC through the rebuilt manager must still converge to empty
        for epoch in list(clone.live_epochs()):
            clone.prune(epoch)
        assert len(clone.index) == 0

    def test_blob_rebuilds_the_live_index_in_one_forward_pass(self, monkeypatch):
        """Pinned ancestors, a compacted epoch in the middle and a pruned
        delta: entries, refs, sizes and totals come back as the live index
        has them, and each delta after a carried parent costs no walk."""
        manager, workload = make_chain(depth=6, dirty_frac=0.3)
        manager.prune(0)       # the base: retired, pinned by everything after
        manager.compact(3)     # 0..2 stay behind 1 and 2; 3 becomes a full
        manager.prune(2)       # retired, pins nothing: swept
        manager.prune(4)       # a delta on the compacted full: pinned by 5, 6
        assert manager.nodes[0].retired and manager.nodes[4].retired
        assert sorted(manager.nodes) == [0, 1, 3, 4, 5, 6]
        assert manager.live_epochs() == [1, 3, 5, 6]

        walks = []
        real = ChainManager.resolved_fps
        monkeypatch.setattr(
            ChainManager, "resolved_fps",
            lambda self, epoch, rank: walks.append(epoch) or real(self, epoch, rank),
        )
        clone = ChainManager.from_blob(
            manager.to_blob(), manager.cluster, manager.config,
            index=GlobalDedupIndex(),
        )
        assert walks == []  # fulls are read, deltas stepped from their parent
        monkeypatch.undo()

        live, rebuilt = dict(manager.index.items()), dict(clone.index.items())
        assert set(rebuilt) == set(live)
        assert clone.owner == manager.owner
        recount = recount_references([manager])
        for f, entry in live.items():
            assert rebuilt[f].refs == entry.refs == recount[f], f.hex()
            assert rebuilt[f].size == entry.size
            assert rebuilt[f].first_writer == entry.first_writer == manager.owner
        assert clone.index.unique_bytes == manager.index.unique_bytes
        assert clone.index.referenced_bytes(manager.owner) == (
            manager.index.referenced_bytes(manager.owner)
        ) == manager.index.unique_bytes
        # and the carried tip is the newest epoch's, ready for the next delta
        assert clone._tip[0] == 6 and clone._tip[1] == clone.depth_of(6) == 4
        assert clone._tip[2] == [clone.resolved_fps(6, r) for r in range(N)]

    def test_chunk_size_mismatch_rejected(self):
        manager, _ = make_chain()
        blob = manager.to_blob()
        other = DumpConfig(replication_factor=2, chunk_size=CHUNK * 2)
        with pytest.raises(ChainStateError, match="chunk_size"):
            ChainManager.from_blob(blob, manager.cluster, other)

    def test_save_load_file(self, tmp_path):
        manager, workload = make_chain(depth=2)
        path = tmp_path / "chain.rch1"
        manager.save(path)
        assert os.listdir(tmp_path) == ["chain.rch1"]  # no temp file left
        clone = ChainManager.load(path, manager.cluster, manager.config)
        assert sorted(clone.live_epochs()) == [0, 1, 2]
        for epoch in clone.live_epochs():
            for rank in range(N):
                dataset, _ = clone.restore_epoch(rank, epoch)
                assert dataset.to_bytes() == oracle(workload, epoch, rank)

    def test_load_rejects_empty_torn_and_bit_flipped_files(self, tmp_path):
        manager, _ = make_chain(depth=1)
        path = tmp_path / "chain.rch1"
        manager.save(path)
        good = path.read_bytes()
        flipped = bytearray(good)
        flipped[len(good) // 2] ^= 0x10
        for bad in (b"", good[:3], good[: len(good) // 2], good[:-1], bytes(flipped)):
            path.write_bytes(bad)
            with pytest.raises(ChainCodecError, match="^RCH1: "):
                ChainManager.load(path, manager.cluster, manager.config)

    def test_failed_save_leaves_the_previous_file_loadable(self, tmp_path, monkeypatch):
        manager, workload = make_chain(depth=1)
        path = tmp_path / "chain.rch1"
        manager.save(path)
        before = path.read_bytes()
        workload.advance()
        manager.chain_dump(workload)

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space"):
            manager.save(path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["chain.rch1"]
        assert path.read_bytes() == before
        clone = ChainManager.load(path, manager.cluster, manager.config)
        assert sorted(clone.live_epochs()) == [0, 1]


class TestTraceIntegration:
    def test_chain_spans_and_gauges_recorded(self):
        cluster = Cluster(N)
        config = DumpConfig(replication_factor=2, chunk_size=CHUNK)
        trace = Trace(rank=0, level="span")
        workload = MutatingWorkload(seed=5, chunk_size=CHUNK)
        manager = ChainManager(cluster, config, N, trace=trace)
        manager.chain_dump(workload, kind="full")
        workload.advance()
        manager.chain_dump(workload)
        manager.restore_epoch(0, 1)
        manager.compact(1)
        manager.prune(0)
        names = {span.name for span in trace.spans}
        assert {"chain-dump", "chain-restore", "chain-gc", "chain-compact"} <= names
        assert trace.metrics.gauge("chain_depth").value >= 1.0
