"""Property suite for the chain algebra.

The laws that make incremental chains safe to operate:

* **compaction identity** — k deltas compacted into a synthetic full
  resolve to exactly the fingerprints a from-scratch full dump of the same
  state produces, and restore byte-identically;
* **GC prefix invariance** — pruning any prefix (or any subset) of
  ancestors never changes a surviving epoch's restored bytes;
* **time-travel soundness at depth** — on chains of depth >= 8, every live
  epoch restores byte-identical to the in-memory oracle on the thread AND
  process backends, including after interleaved GC and compaction.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.mutating import MutatingWorkload
from repro.chain import ChainManager
from repro.core.config import DumpConfig
from repro.storage.local_store import Cluster

CHUNK = 512
SEGMENTS = (CHUNK * 5, CHUNK * 2 + 100, 200)


def build_chain(seed, depth, dirty_frac, n=2, backend=None):
    cluster = Cluster(n)
    config = DumpConfig(replication_factor=2, chunk_size=CHUNK)
    workload = MutatingWorkload(
        seed=seed, segment_lengths=SEGMENTS, chunk_size=CHUNK,
        dirty_frac=dirty_frac,
    )
    manager = ChainManager(cluster, config, n, backend=backend)
    manager.chain_dump(workload, kind="full")
    for _ in range(depth):
        workload.advance()
        manager.chain_dump(workload)
    return manager, workload


def assert_epoch_matches_oracle(manager, workload, epoch, n):
    for rank in range(n):
        dataset, _ = manager.restore_epoch(rank, epoch)
        want = workload.at_epoch(epoch).build_dataset(rank, n).to_bytes()
        assert dataset.to_bytes() == want, (epoch, rank)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    depth=st.integers(min_value=1, max_value=6),
    dirty_frac=st.sampled_from([0.05, 0.2, 0.5]),
)
def test_deltas_plus_compact_equals_one_full(seed, depth, dirty_frac):
    """k deltas + compact == one full dump of the same state: identical
    resolved fingerprints, byte-identical restores."""
    n = 2
    manager, workload = build_chain(seed, depth, dirty_frac, n=n)
    manager.compact(depth)

    fresh_cluster = Cluster(n)
    fresh = ChainManager(
        fresh_cluster, DumpConfig(replication_factor=2, chunk_size=CHUNK), n
    )
    fresh.chain_dump(workload.at_epoch(depth), kind="full")

    for rank in range(n):
        assert (
            manager.resolved_fps(depth, rank) == fresh.nodes[0].fps[rank]
        ), rank
        compacted, _ = manager.restore_epoch(rank, depth)
        scratch, _ = fresh.restore_epoch(rank, 0)
        assert compacted.to_bytes() == scratch.to_bytes()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    depth=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_gc_never_changes_surviving_restores(seed, depth, data):
    """Pruning any subset of epochs (tip excluded) leaves every survivor's
    restore byte-identical to the oracle."""
    n = 2
    manager, workload = build_chain(seed, depth, dirty_frac=0.3, n=n)
    victims = data.draw(st.lists(
        st.integers(min_value=0, max_value=depth - 1),
        unique=True, max_size=depth,
    ))
    for epoch in victims:
        manager.prune(epoch)
    survivors = manager.live_epochs()
    assert depth in survivors
    for epoch in survivors:
        assert_epoch_matches_oracle(manager, workload, epoch, n)
    # refcount conservation: stored chunks == union of survivors' resolved
    stored = set()
    for node in manager.cluster.nodes:
        stored.update(node.chunks.fingerprints())
    referenced = set()
    for epoch in survivors:
        referenced |= manager.resolved_distinct(epoch)
    assert stored == referenced
    assert len(manager.index) == len(referenced)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    data=st.data(),
)
def test_depth8_time_travel_with_gc_and_compaction_thread(seed, data):
    _depth8_time_travel(seed, data, backend="thread")


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    data=st.data(),
)
def test_depth8_time_travel_with_gc_and_compaction_process(seed, data):
    _depth8_time_travel(seed, data, backend="process")


def _depth8_time_travel(seed, data, backend):
    """The acceptance property: depth >= 8 chains restore every live epoch
    byte-identically on this backend, before and after GC + compaction."""
    n = 2
    depth = data.draw(st.integers(min_value=8, max_value=9), label="depth")
    manager, workload = build_chain(
        seed, depth, dirty_frac=0.15, n=n, backend=backend
    )
    assert manager.depth_of(depth) == depth + 1

    for epoch in range(depth + 1):
        assert_epoch_matches_oracle(manager, workload, epoch, n)

    victims = data.draw(st.lists(
        st.integers(min_value=0, max_value=depth - 1),
        unique=True, min_size=1, max_size=4,
    ), label="pruned")
    for epoch in victims:
        manager.prune(epoch)
    for epoch in manager.live_epochs():
        assert_epoch_matches_oracle(manager, workload, epoch, n)

    compact_at = data.draw(
        st.sampled_from(manager.live_epochs()), label="compacted"
    )
    manager.compact(compact_at)
    for epoch in manager.live_epochs():
        assert_epoch_matches_oracle(manager, workload, epoch, n)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backends_produce_identical_chains(backend):
    """Differential anchor: both backends yield the same chain nodes, the
    same cluster fingerprints and the same blob."""
    manager, _ = build_chain(seed=424242, depth=3, dirty_frac=0.2,
                             backend=backend)
    blob = manager.to_blob()
    reference, _ = build_chain(seed=424242, depth=3, dirty_frac=0.2,
                               backend="thread")
    assert blob == reference.to_blob()
    stored = {
        node.node_id: sorted(node.chunks.fingerprints())
        for node in manager.cluster.nodes
    }
    ref_stored = {
        node.node_id: sorted(node.chunks.fingerprints())
        for node in reference.cluster.nodes
    }
    assert stored == ref_stored


# -- the carried tip ---------------------------------------------------------------

CONFIG = DumpConfig(replication_factor=2, chunk_size=CHUNK)

#: the geometries a ``reshape`` cycles through: a segment grown, one dropped
GEOMETRIES = (SEGMENTS, (CHUNK * 6, CHUNK * 2 + 100, 200), (CHUNK * 5, 200))

OPS = st.one_of(
    st.tuples(st.sampled_from(
        ("delta", "delta", "full", "reload", "failed", "failed-full", "reshape")
    )),
    st.tuples(
        st.sampled_from(("prune", "compact")),
        st.integers(min_value=0, max_value=7),
    ),
)


def assert_carried_tip_is_the_walk(manager):
    """Whatever is carried is what ``resolved_fps`` derives from scratch."""
    if manager._tip is not None:
        epoch, depth, columns = manager._tip
        assert depth == manager.depth_of(epoch)
        assert columns == [
            manager.resolved_fps(epoch, rank) for rank in range(manager.n)
        ]


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    ops=st.lists(OPS, max_size=8),
)
@example(seed=3, ops=[("failed-full",)])  # warm caches, then a full that raises
@example(seed=3, ops=[("failed",), ("failed-full",), ("compact", 1)])
@example(seed=3, ops=[("reshape",), ("prune", 1), ("reshape",), ("reshape",)])
def test_carried_tip_equals_the_walk_under_any_interleaving(seed, ops):
    """Dumps, reshapes, prune, compact, save/load and a failed dump in any order:
    the carried tip is always what the walk resolves, and the next delta
    is the one a manager that never carried anything produces."""
    import copy
    import tempfile

    n = 2
    manager, workload = build_chain(seed, 1, dirty_frac=0.2, n=n)
    for op in ops:
        live = manager.live_epochs()
        if op[0] in ("delta", "full", "reshape"):
            workload.advance()
            if op[0] == "reshape":
                # The same seed on the next geometry: later chunks shift, and
                # the dirty regions name the new segments, not the cached ones.
                lengths = tuple(workload.segment_lengths)
                reshaped = MutatingWorkload(
                    seed=workload.seed,
                    segment_lengths=GEOMETRIES[
                        (GEOMETRIES.index(lengths) + 1) % len(GEOMETRIES)
                    ],
                    chunk_size=CHUNK, dirty_frac=workload.dirty_frac,
                )
                reshaped.epoch, workload = workload.epoch, reshaped
            kind = "full" if op[0] == "full" else "delta"
            result = manager.chain_dump(workload, kind=kind)
            assert manager._tip[0] == result.epoch  # carried, not re-derived
        elif op[0] in ("failed", "failed-full"):
            # A failed delta: the cache sees these bytes, the chain does not.
            # A failed full: neither does, and the next dirty_regions will not
            # name them either, so the caches must be gone by now.
            workload.advance()

            def hook(phase, rank):
                raise RuntimeError("boom")

            kind = "full" if op[0] == "failed-full" else "delta"
            with pytest.raises(Exception, match="boom"):
                manager.chain_dump(workload, kind=kind, phase_hook=hook)
            if kind == "full":
                assert manager._caches == {}
        elif op[0] == "reload":
            with tempfile.TemporaryDirectory() as tmp:
                manager.save(f"{tmp}/chain.rch1")
                manager = ChainManager.load(
                    f"{tmp}/chain.rch1", manager.cluster, CONFIG
                )
        elif live:
            epoch = live[op[1] % len(live)]
            if op[0] == "prune":
                manager.prune(epoch)
            else:
                manager.compact(epoch)
        assert_carried_tip_is_the_walk(manager)

    # The same next epoch through a manager rebuilt from the blob over a copy
    # of the cluster, with nothing carried and a cold fingerprint cache.
    fresh = ChainManager.from_blob(
        manager.to_blob(), copy.deepcopy(manager.cluster), CONFIG
    )
    assert_carried_tip_is_the_walk(fresh)
    fresh._tip = None
    workload.advance()
    got = manager.chain_dump(workload)
    want = fresh.chain_dump(workload.at_epoch(workload.epoch))
    assert (got.epoch, got.kind, got.changed_chunks) == (
        want.epoch, want.kind, want.changed_chunks
    )
    assert manager.nodes[got.epoch].positions == fresh.nodes[want.epoch].positions
    assert manager.nodes[got.epoch].fps == fresh.nodes[want.epoch].fps
    assert manager.to_blob() == fresh.to_blob()
    assert_carried_tip_is_the_walk(manager)


def test_steady_state_delta_walks_nothing_and_sizes_only_new_chunks(monkeypatch):
    """Work counts, not seconds: at depth >= 8 a delta epoch never calls
    ``path_of`` / ``resolved_fps`` and asks the stores for the sizes of no
    more fingerprints than it added."""
    manager, workload = build_chain(seed=7, depth=8, dirty_frac=0.1)
    calls = {"path_of": 0, "resolved_fps": 0}
    asked = []
    for name in calls:
        real = getattr(ChainManager, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(ChainManager, name, counted)
    real_sizes = manager.cluster.stored_sizes
    monkeypatch.setattr(
        manager.cluster, "stored_sizes",
        lambda fps: asked.extend(fps) or real_sizes(fps),
    )
    known = {fp for fp, _entry in manager.index.items()}

    for _ in range(3):
        workload.advance()
        result = manager.chain_dump(workload)
        assert result.kind == "delta"
        written = manager.nodes[result.epoch].written_fingerprints()
        assert sorted(asked) == sorted(written - known)
        assert len(asked) == result.new_unique_chunks <= result.changed_chunks
        known |= written
        asked.clear()
    assert calls == {"path_of": 0, "resolved_fps": 0}

    monkeypatch.undo()
    assert manager.depth_of(manager.tip().epoch) == 12
    for epoch in manager.live_epochs():
        assert_epoch_matches_oracle(manager, workload, epoch, 2)
