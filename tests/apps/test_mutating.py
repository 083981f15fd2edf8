"""MutatingWorkload: the chain layer's epoch-evolving oracle."""

import pytest

from repro.apps.mutating import MutatingWorkload
from repro.chain.node import chunk_slices
from repro.core.chunking import Dataset


def test_deterministic_per_epoch():
    a = MutatingWorkload(seed=5)
    b = MutatingWorkload(seed=5)
    a.advance(3)
    b.advance(3)
    for rank in range(3):
        assert a.build_dataset(rank, 3) == b.build_dataset(rank, 3)


def test_at_epoch_is_time_travel_oracle():
    workload = MutatingWorkload(seed=5)
    snapshots = [workload.at_epoch(0).build_dataset(0, 2).to_bytes()]
    for _ in range(4):
        workload.advance()
        snapshots.append(workload.build_dataset(0, 2).to_bytes())
    for epoch, want in enumerate(snapshots):
        assert workload.at_epoch(epoch).build_dataset(0, 2).to_bytes() == want
    assert len(set(snapshots)) == len(snapshots)  # every epoch differs


def test_incremental_materialization_matches_from_scratch():
    """The in-place state cache (advance + dump per epoch, like a real
    application) must produce byte-identical content to a cold replay of
    all mutations from the base — including after an epoch rewind, which
    forces the cold path on a warm instance."""
    warm = MutatingWorkload(seed=5)
    for epoch in range(5):
        warm.epoch = epoch
        for rank in range(2):
            incremental = warm.build_dataset(rank, 2).to_bytes()
            cold = warm.at_epoch(epoch).build_dataset(rank, 2).to_bytes()
            assert incremental == cold, (epoch, rank)
    warm.epoch = 2  # rewind: the cache is ahead and must be discarded
    assert (
        warm.build_dataset(0, 2).to_bytes()
        == warm.at_epoch(2).build_dataset(0, 2).to_bytes()
    )


def test_dirty_regions_cover_exactly_the_mutated_chunks():
    workload = MutatingWorkload(seed=8, dirty_frac=0.1)
    # A copy: a dataset is the workload's live memory, and materialising the
    # advance below rewrites it in place (before and after would alias).
    live = workload.build_dataset(1, 2)
    before = Dataset([bytes(live.segment(i)) for i in range(live.num_segments)])
    workload.advance()
    after = workload.build_dataset(1, 2)
    assert before.to_bytes() != after.to_bytes()
    regions = workload.dirty_regions(1, 2)
    assert regions is not None
    slices = chunk_slices(workload.segment_lengths, workload.chunk_size)
    declared = {
        (seg, start, end)
        for seg, seg_regions in enumerate(regions)
        for start, end in seg_regions
    }
    for index, (seg, start, length) in enumerate(slices):
        chunk_before = bytes(before.segment(seg))[start:start + length]
        chunk_after = bytes(after.segment(seg))[start:start + length]
        if chunk_before != chunk_after:
            assert (seg, start, start + length) in declared, (seg, start)


def test_epoch_zero_regions_unknown():
    assert MutatingWorkload(seed=1).dirty_regions(0, 2) is None


def test_geometry_constant_across_epochs():
    workload = MutatingWorkload(seed=2)
    base = workload.build_dataset(0, 2).segment_lengths
    workload.advance(5)
    assert workload.build_dataset(0, 2).segment_lengths == base


def test_shared_base_dedups_across_ranks_at_epoch_zero():
    workload = MutatingWorkload(seed=3, shared_base=True)
    seg0 = [bytes(workload.build_dataset(r, 4).segment(0)) for r in range(4)]
    assert len(set(seg0)) == 1
    private = MutatingWorkload(seed=3, shared_base=False)
    seg0 = [bytes(private.build_dataset(r, 4).segment(0)) for r in range(4)]
    assert len(set(seg0)) == 4


def test_at_least_one_chunk_mutates_per_epoch():
    workload = MutatingWorkload(seed=4, dirty_frac=0.0001)
    before = workload.build_dataset(0, 2).to_bytes()
    workload.advance()
    assert workload.build_dataset(0, 2).to_bytes() != before


def test_validation():
    with pytest.raises(ValueError):
        MutatingWorkload(dirty_frac=0.0)
    with pytest.raises(ValueError):
        MutatingWorkload(chunk_size=0)
    with pytest.raises(ValueError):
        MutatingWorkload().at_epoch(-1)
    with pytest.raises(ValueError):
        MutatingWorkload().advance(-1)


def test_datasets_are_read_only_views_valid_until_the_next_materialised_advance():
    workload = MutatingWorkload(seed=6, dirty_frac=0.2)
    dataset = workload.build_dataset(0, 2)
    assert all(dataset.segment(i).readonly for i in range(dataset.num_segments))
    with pytest.raises(TypeError):
        dataset.segment(0)[0] = 1
    snapshot = dataset.to_bytes()
    workload.advance()
    assert dataset.to_bytes() == snapshot  # advance() alone touches nothing
    again = workload.build_dataset(0, 2)  # ... materialising it does
    assert dataset.to_bytes() == again.to_bytes() != snapshot
    # the other rank's memory is its own
    assert workload.build_dataset(1, 2).to_bytes() != again.to_bytes()


def test_per_rank_bytes_is_the_declared_geometry_and_materialises_nothing():
    workload = MutatingWorkload(seed=6)
    workload.advance(3)
    assert workload.per_rank_bytes(4, 2) == sum(workload.segment_lengths)
    assert workload._states == {}
    assert workload.build_dataset(2, 4).nbytes == workload.per_rank_bytes(4, 2)
