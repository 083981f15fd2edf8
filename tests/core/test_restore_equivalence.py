"""Equivalence of the restore paths with the naive per-chunk reference.

The restore pipeline — vectorised source planning (:mod:`restore_plan`),
``get_many`` coalesced reads, packed ``RRQ1``/``RRP1`` request/reply blobs
and zero-copy segment cutting — is pure performance work: restored
datasets, RestoreReport/CollectiveRestoreReport accounting and the
per-node source distribution must all be identical to the per-chunk loops
in ``tests/core/reference.py``, across every strategy, sharded and flat
stores, compression, and degraded (failed-node) clusters.  These tests pin
that, property-style where the input space matters — the restore-side
mirror of ``test_hotpath_equivalence.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.chunking import Dataset
from repro.core.collective_restore import load_input
from repro.core.restore_plan import (
    RECONSTRUCT,
    cut_segments,
    dedup_fingerprints,
    plan_restore,
)
from repro.core.runner import run_collective
from repro.simmpi import World
from repro.storage import Cluster
from repro.storage.local_store import StorageError

from tests.conftest import make_rank_dataset
from tests.core import reference

CS = 64


# -- planning primitives ------------------------------------------------------


class TestDedupFingerprints:
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=30), min_size=0, max_size=60
        )
    )
    def test_matches_dict_sweep(self, ids):
        raw = [bytes([i]) * 20 for i in ids]
        distinct, index = dedup_fingerprints(raw)
        assert len(set(distinct)) == len(distinct)
        assert [distinct[j] for j in index.tolist()] == raw
        # First-occurrence order — the per-chunk loop's iteration order.
        seen = list(dict.fromkeys(raw))
        assert distinct == seen

    def test_trailing_null_digests_survive(self):
        # Regression: an S-dtype dedup would strip trailing zero bytes and
        # alias distinct digests (found by the dst restore oracle).
        a = b"\x01" * 19 + b"\x00"
        b = b"\x01" * 19 + b"\x02"
        c = b"\x00" * 20
        distinct, index = dedup_fingerprints([a, b, c, a])
        assert distinct == [a, b, c]
        assert index.tolist() == [0, 1, 2, 0]
        assert all(isinstance(fp, bytes) and len(fp) == 20 for fp in distinct)

    def test_mixed_widths_fall_back(self):
        raw = [b"ab", b"abc", b"ab"]
        distinct, index = dedup_fingerprints(raw)
        assert distinct == [b"ab", b"abc"]
        assert index.tolist() == [0, 1, 0]


class TestCutSegments:
    @given(data=st.data())
    def test_matches_join_then_slice(self, data):
        chunk_lens = data.draw(
            st.lists(st.integers(min_value=0, max_value=9), max_size=12),
            label="chunk_lens",
        )
        rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
        chunks = [rng.randbytes(n) for n in chunk_lens]
        total = sum(chunk_lens)
        # A random partition of the total into segment lengths (zero-length
        # segments included).
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, total), max_size=6), label="cuts"
            )
        )
        bounds = [0, *cuts, total]
        seg_lens = [b - a for a, b in zip(bounds, bounds[1:])]
        stream = b"".join(chunks)
        expected = [
            stream[a:b] for a, b in zip(bounds, bounds[1:])
        ]
        assert cut_segments(chunks, seg_lens, rank=0) == expected

    def test_mismatch_raises(self):
        with pytest.raises(StorageError, match="manifest inconsistent"):
            cut_segments([b"abcd"], [5], rank=3)

    def test_zero_copy_on_boundaries(self):
        a, b = b"x" * 8, b"y" * 8
        segments = cut_segments([a, b], [8, 8], rank=0)
        assert segments[0] is a and segments[1] is b


class TestPlanRestore:
    def _dumped(self, n=5, fail=(), strategy=Strategy.LOCAL_DEDUP):
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, strategy=strategy)
        cluster = Cluster(n, dedup=True)
        World(n).run(
            lambda comm: dump_output(
                comm, make_rank_dataset(comm.rank), cfg, cluster
            )
        )
        for node_id in fail:
            cluster.fail_node(node_id)
        return cluster

    def test_all_local_when_node_alive(self):
        cluster = self._dumped()
        manifest = cluster.find_manifest(1, 0)
        plan = plan_restore(cluster, 1, manifest)
        assert plan.local.all()
        assert not plan.remote_groups()
        assert [plan.fps[j] for j in plan.index.tolist()] == list(
            manifest.fingerprints
        )

    def test_failed_node_goes_remote_least_loaded(self):
        cluster = self._dumped(fail=(0,))
        plan = plan_restore(cluster, 0, cluster.find_manifest(0, 0))
        assert not plan.local.any()
        groups = plan.remote_groups()
        assert groups and 0 not in groups
        assert sorted(j for g in groups.values() for j in g) == list(
            range(len(plan.fps))
        )

    def test_eligible_nodes_restricts_sources(self):
        cluster = self._dumped(fail=(0,))
        manifest = cluster.find_manifest(0, 0)
        everyone = plan_restore(cluster, 0, manifest)
        allowed = set(everyone.remote_groups())
        keep = sorted(allowed)[:1]
        # Restricting to a subset must never plan a source outside it.
        plan = plan_restore(
            cluster, 0, manifest, eligible_nodes=set(keep),
            allow_reconstruct=True,
        )
        live = set(plan.remote_groups())
        assert live <= set(keep)

    def test_unrecoverable_raises_without_reconstruct(self):
        cluster = self._dumped(n=4)
        manifest = cluster.find_manifest(0, 0)
        for node in cluster.nodes:
            cluster.fail_node(node.node_id)
        with pytest.raises(StorageError, match="unrecoverable"):
            plan_restore(cluster, 0, manifest, allow_reconstruct=False)
        plan = plan_restore(cluster, 0, manifest, allow_reconstruct=True)
        assert (plan.sources == RECONSTRUCT).all()


# -- end-to-end equivalence ---------------------------------------------------


def _random_datasets(n, seed, chunk_size=CS):
    """Per-rank datasets mixing shared, duplicated and unique chunks with
    randomised segment structure — the redundancy profiles the paper's
    strategies distinguish."""
    rng = random.Random(seed)
    shared = rng.randbytes(chunk_size * rng.randint(0, 3))
    datasets = {}
    for rank in range(n):
        body = shared + rng.randbytes(
            chunk_size * rng.randint(1, 6) + rng.randint(0, chunk_size - 1)
        )
        if rng.random() < 0.5:  # local duplicates
            body += body[: chunk_size * 2]
        cut = rng.randint(0, len(body))
        segments = [body[:cut], body[cut:]]
        if rng.random() < 0.3:
            segments.insert(rng.randint(0, 2), b"")
        datasets[rank] = Dataset(segments)
    return datasets


def _dump(n, strategy, shards, compress, seed, k=3):
    cfg = DumpConfig(
        replication_factor=k, chunk_size=CS, strategy=strategy,
        compress=compress,
    )
    cluster = Cluster(
        n, dedup=(strategy is not Strategy.NO_DEDUP), shard_count=shards
    )
    datasets = _random_datasets(n, seed)
    World(n).run(
        lambda comm: dump_output(comm, datasets[comm.rank], cfg, cluster)
    )
    return cluster, datasets, cfg


class TestRestoreDatasetEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        strategy=st.sampled_from(list(Strategy)),
        shards=st.sampled_from([1, 4]),
        compress=st.sampled_from([None, "zlib-1"]),
        n_fail=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference(self, strategy, shards, compress, n_fail, seed):
        n = 5
        cluster, datasets, _cfg = _dump(n, strategy, shards, compress, seed)
        for node_id in range(n_fail):
            cluster.fail_node(node_id)
        for rank in range(n):
            ref_ds, ref_rep = reference.restore_dataset(cluster, rank)
            ds, rep = restore_dataset(cluster, rank)
            # Byte-identical data, field-identical report — including the
            # per-node source distribution (the locality-aware plan must
            # reproduce the per-chunk least-loaded greedy exactly).
            assert ds == ref_ds == datasets[rank]
            assert vars(rep) == vars(ref_rep)


def _assert_load_input_matches(results, expected, datasets):
    for rank, ((ds, rep), (ref_ds, ref_rep)) in enumerate(zip(results, expected)):
        assert ds == ref_ds == datasets[rank]
        assert vars(rep) == vars(ref_rep)


class TestLoadInputEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        strategy=st.sampled_from(list(Strategy)),
        shards=st.sampled_from([1, 4]),
        compress=st.sampled_from([None, "zlib-1"]),
        n_fail=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference(self, strategy, shards, compress, n_fail, seed):
        n = 5
        cluster, datasets, cfg = _dump(n, strategy, shards, compress, seed)
        for node_id in range(n_fail):
            cluster.fail_node(node_id)
        results = World(n).run(lambda comm: load_input(comm, cluster, cfg))
        _assert_load_input_matches(
            results, reference.load_input(cluster, n), datasets
        )

    def test_process_backend_matches_reference(self):
        """The packed request/reply path under real fork-based ranks."""
        n = 4
        cluster, datasets, cfg = _dump(
            n, Strategy.COLL_DEDUP, shards=1, compress=None, seed=77, k=2
        )
        cluster.fail_node(0)

        def prog(comm, cluster):
            ds, rep = load_input(comm, cluster, cfg)
            return ds.to_bytes(), rep  # a Dataset's memoryviews do not pickle

        results, _world = run_collective(
            n, prog, cluster, cluster=cluster, backend="process", timeout=120
        )
        for rank, (ref_ds, ref_rep) in enumerate(reference.load_input(cluster, n)):
            blob, rep = results[rank]
            assert blob == ref_ds.to_bytes() == datasets[rank].to_bytes()
            assert vars(rep) == vars(ref_rep)
