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
from repro.storage.manifest import Manifest

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


def _greedy_sources(cluster, rank, manifest, eligible=None):
    """``{fp: source}`` by the per-chunk greedy over the manifest's
    fingerprints, the loop ``reference.restore_from_manifest`` and
    ``reference.load_input`` run: the rank's own live node, else the
    least-loaded live ``eligible`` holder (ties to the lowest id), else
    RECONSTRUCT."""
    own = cluster.node_of(rank)
    loads, sources = {}, {}
    for fp in manifest.fingerprints:
        if fp in sources:
            continue
        if own.alive and own.chunks.has(fp):
            sources[fp] = own.node_id
            continue
        holders = [
            h for h in cluster.locate(fp) if eligible is None or h in eligible
        ]
        if not holders:
            sources[fp] = RECONSTRUCT
            continue
        source = min(holders, key=lambda h: (loads.get(h, 0), h))
        loads[source] = loads.get(source, 0) + 1
        sources[fp] = source
    return sources


def _placed(n_nodes, holder_sets, order, seed, dead=()):
    """A cluster built by hand: distinct chunk ``i`` (a 20-byte digest
    ending in a zero byte) stored on the nodes of ``holder_sets[i]``, and
    rank 0's manifest listing the chunks ``order`` names (repeats
    allowed), in two segments, on every node."""
    rng = random.Random(seed)
    cluster = Cluster(n_nodes)
    fps, payloads = [], []
    for holders in holder_sets:
        fp = rng.randbytes(18) + bytes([rng.choice([0, 7])]) + b"\x00"
        payload = rng.randbytes(rng.randint(1, 2 * CS))
        for node_id in holders:
            cluster.nodes[node_id].chunks.put(fp, payload)
        fps.append(fp)
        payloads.append(payload)
    listed = [fps[i] for i in order]
    total = sum(len(payloads[i]) for i in order)
    cut = rng.randint(0, total)
    manifest = Manifest(
        rank=0, dump_id=0, segment_lengths=[cut, total - cut],
        fingerprints=listed, chunk_size=CS,
    )
    for node in cluster.nodes:
        node.put_manifest(manifest)
    for node_id in dead:
        cluster.fail_node(node_id)
    expected = b"".join(payloads[i] for i in order)
    return cluster, manifest, expected


def _plan_sources(plan):
    return dict(zip(plan.fps, plan.sources.tolist()))


class TestColumnarPlanMatchesGreedy:
    def test_repeated_and_trailing_zero_digests(self):
        holder_sets = [{0}, {1, 2}, {0, 2}, {1}]
        order = [0, 1, 0, 2, 3, 1, 1, 3, 2]
        cluster, manifest, expected = _placed(3, holder_sets, order, seed=3)
        cluster.nodes[0].chunks.put(b"\x00" * 20, b"z" * CS)
        manifest.fingerprints += [b"\x00" * 20, b"\x00" * 20]
        manifest.segment_lengths[-1] += 2 * CS
        expected += b"z" * 2 * CS
        for node in cluster.nodes:
            node.put_manifest(manifest)
        plan = plan_restore(cluster, 0, manifest)
        assert all(isinstance(fp, bytes) and len(fp) == 20 for fp in plan.fps)
        assert plan.fps == list(dict.fromkeys(manifest.fingerprints))
        assert [plan.fps[j] for j in plan.index.tolist()] == manifest.fingerprints
        assert _plan_sources(plan) == _greedy_sources(cluster, 0, manifest)
        ds, rep = restore_dataset(cluster, 0)
        ref_ds, ref_rep = reference.restore_dataset(cluster, 0)
        assert ds == ref_ds and ds.to_bytes() == expected
        assert vars(rep) == vars(ref_rep)

    @given(data=st.data())
    def test_mixed_holder_sets_with_eligible_nodes(self, data):
        n = data.draw(st.integers(2, 7), label="nodes")
        node = st.integers(0, n - 1)
        holder_sets = data.draw(
            st.lists(st.sets(node, max_size=n), min_size=1, max_size=25),
            label="holder_sets",
        )
        order = data.draw(
            st.lists(st.integers(0, len(holder_sets) - 1), min_size=1, max_size=40),
            label="order",
        )
        dead = data.draw(st.sets(node, max_size=2), label="dead")
        eligible = data.draw(st.none() | st.sets(node), label="eligible")
        cluster, manifest, expected = _placed(n, holder_sets, order, 0, dead)
        plan = plan_restore(cluster, 0, manifest, eligible_nodes=eligible)
        want = _greedy_sources(cluster, 0, manifest, eligible)
        assert _plan_sources(plan) == want
        # Each holder is asked in first-occurrence order (sequential reads).
        for group in plan.remote_groups().values():
            assert group == sorted(group)
        assert [plan.fps[j] for j in plan.index.tolist()] == manifest.fingerprints
        if eligible is None and RECONSTRUCT not in want.values():
            ds, rep = restore_dataset(cluster, 0)
            ref_ds, ref_rep = reference.restore_dataset(cluster, 0)
            assert ds == ref_ds and ds.to_bytes() == expected
            assert vars(rep) == vars(ref_rep)

    def test_more_than_64_nodes(self):
        holder_sets = [{65, 69}, {3, 66}, {64}, {69}, {1, 64, 69}, {66, 3}, set()]
        order = [0, 1, 2, 3, 4, 5, 0, 4, 4, 1]
        cluster, manifest, expected = _placed(70, holder_sets, order, 9, dead=[0])
        want = _greedy_sources(cluster, 0, manifest)
        assert _plan_sources(plan_restore(cluster, 0, manifest)) == want
        eligible = {3, 64, 65, 69}
        plan = plan_restore(cluster, 0, manifest, eligible_nodes=eligible)
        assert _plan_sources(plan) == _greedy_sources(cluster, 0, manifest, eligible)
        ds, rep = restore_dataset(cluster, 0)
        ref_ds, ref_rep = reference.restore_dataset(cluster, 0)
        assert ds == ref_ds and ds.to_bytes() == expected
        assert vars(rep) == vars(ref_rep)
        assert max(rep.source_nodes) == 69

    @pytest.mark.parametrize("case", ["all-local", "all-remote", "compressed"])
    def test_report_matches_reference(self, case):
        compress = "zlib-1" if case == "compressed" else None
        cluster, datasets, _cfg = _dump(5, Strategy.LOCAL_DEDUP, 1, compress, 11)
        if case != "all-local":
            cluster.fail_node(2)
        ds, rep = restore_dataset(cluster, 2)
        ref_ds, ref_rep = reference.restore_dataset(cluster, 2)
        assert ds == ref_ds == datasets[2]
        assert vars(rep) == vars(ref_rep)
        if case == "all-local":
            assert rep.remote_chunks == 0 and rep.local_chunks > 0
        else:
            assert rep.local_chunks == 0 and rep.remote_chunks > 0

    def test_load_input_skips_holders_without_a_rank(self):
        """Node 1 runs no rank, so the collective restore may not pull from
        it even though it holds a copy of every chunk node 0 held."""
        cfg = DumpConfig(replication_factor=2, chunk_size=CS)
        cluster = Cluster(4, rank_to_node=[0, 2, 3, 3])
        datasets = {r: make_rank_dataset(r) for r in range(4)}
        World(4).run(
            lambda comm: dump_output(comm, datasets[comm.rank], cfg, cluster)
        )
        source = cluster.nodes[0].chunks
        for fp in list(source.fingerprints()):
            cluster.nodes[1].chunks.put(fp, source.get(fp))
        cluster.fail_node(0)
        results = World(4).run(lambda comm: load_input(comm, cluster, cfg))
        _assert_load_input_matches(
            results, reference.load_input(cluster, 4), datasets
        )
        manifest = cluster.find_manifest(0, 0)
        assert 1 in plan_restore(cluster, 0, manifest).remote_groups()
        served = plan_restore(cluster, 0, manifest, eligible_nodes={0, 2, 3})
        assert 1 not in served.remote_groups()


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
