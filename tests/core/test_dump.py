"""The DUMP_OUTPUT collective: storage outcomes, accounting, invariants."""

import dataclasses

import pytest

from repro.core import Dataset, DumpConfig, Strategy, dump_output
from repro.core.dump import DumpReport
from repro.core.fingerprint import Fingerprinter
from repro.core.hmerge import GlobalView, MergeEntry
from repro.core.local_dedup import local_dedup_batched
from repro.simmpi import World, WorldError
from repro.storage import Cluster

from tests.conftest import make_rank_dataset

CS = 64


def run_dump(n, strategy, k=3, shuffle=True, dataset_factory=make_rank_dataset,
             cluster=None, dump_id=0):
    cfg = DumpConfig(
        replication_factor=k,
        chunk_size=CS,
        strategy=strategy,
        f_threshold=4096,
        shuffle=shuffle,
    )
    if cluster is None:
        cluster = Cluster(n, dedup=(strategy is not Strategy.NO_DEDUP))
    reports = World(n).run(
        lambda comm: dump_output(comm, dataset_factory(comm.rank), cfg, cluster, dump_id)
    )
    return reports, cluster


class TestReportAccounting:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_basic_fields(self, strategy):
        n = 5
        reports, _ = run_dump(n, strategy)
        for rank, r in enumerate(reports):
            ds = make_rank_dataset(rank)
            assert r.rank == rank
            assert r.strategy == strategy.value
            assert r.n_chunks == ds.chunk_count(CS)
            assert r.dataset_bytes == ds.nbytes
            assert r.hashed_bytes == ds.nbytes
            assert 0 < r.local_unique_chunks <= r.n_chunks
            assert len(r.sent_per_partner) == r.k - 1
            assert r.sent_chunks == sum(r.sent_per_partner)

    def test_send_recv_conservation(self):
        for strategy in Strategy:
            reports, _ = run_dump(6, strategy)
            assert sum(r.sent_chunks for r in reports) == sum(
                r.received_chunks for r in reports
            )
            assert sum(r.sent_bytes for r in reports) == sum(
                r.received_bytes for r in reports
            )

    def test_strategy_ordering_of_traffic(self):
        """The paper's headline: coll <= local <= no-dedup in total traffic."""
        totals = {}
        for strategy in Strategy:
            reports, _ = run_dump(8, strategy)
            totals[strategy] = sum(r.sent_bytes for r in reports)
        assert totals[Strategy.COLL_DEDUP] <= totals[Strategy.LOCAL_DEDUP]
        assert totals[Strategy.LOCAL_DEDUP] <= totals[Strategy.NO_DEDUP]
        assert totals[Strategy.COLL_DEDUP] < totals[Strategy.NO_DEDUP]

    def test_no_dedup_sends_everything_k_minus_1_times(self):
        n, k = 4, 3
        reports, _ = run_dump(n, Strategy.NO_DEDUP, k=k)
        for rank, r in enumerate(reports):
            assert r.sent_chunks == r.n_chunks * (k - 1)
            assert r.stored_chunks == r.n_chunks

    def test_local_dedup_sends_unique_k_minus_1_times(self):
        n, k = 4, 3
        reports, _ = run_dump(n, Strategy.LOCAL_DEDUP, k=k)
        for r in reports:
            assert r.sent_chunks == r.local_unique_chunks * (k - 1)

    def test_coll_dedup_discards_over_replicated(self):
        reports, _ = run_dump(6, Strategy.COLL_DEDUP, k=3)
        # The globally shared chunk is held by 6 ranks but only 3 designated.
        assert sum(r.discarded_chunks for r in reports) > 0

    def test_view_entries_on_every_rank_match(self):
        reports, _ = run_dump(7, Strategy.COLL_DEDUP)
        assert len({r.view_entries for r in reports}) == 1
        assert reports[0].view_entries > 0

    def test_no_entry_objects_between_reduction_and_exchange(self, monkeypatch):
        """The view stays columns: a coll-dedup dump builds no MergeEntry
        and never looks a fingerprint up one at a time."""
        want, _ = run_dump(4, Strategy.COLL_DEDUP)

        def refuse(*_args, **_kwargs):
            raise AssertionError("per-fingerprint view access in a dump")

        monkeypatch.setattr(MergeEntry, "_trusted", classmethod(refuse))
        monkeypatch.setattr(GlobalView, "get", refuse)
        got, _ = run_dump(4, Strategy.COLL_DEDUP)
        assert got == want
        assert sum(r.discarded_chunks for r in got) > 0

    def test_baselines_have_no_view(self):
        for strategy in (Strategy.NO_DEDUP, Strategy.LOCAL_DEDUP):
            reports, _ = run_dump(4, strategy)
            assert all(r.view_entries == 0 for r in reports)


class TestStorageOutcomes:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_replication_factor_reached(self, strategy, k):
        """Every chunk of every dataset must live on >= min(k, holders-
        compatible) nodes after the dump."""
        n = 6
        reports, cluster = run_dump(n, strategy, k=k)
        for rank in range(n):
            ds = make_rank_dataset(rank)
            for chunk in ds.chunks(CS):
                import hashlib

                fp = hashlib.sha1(chunk).digest()
                holders = cluster.replica_nodes(fp)
                assert len(holders) >= min(k, n), (
                    strategy,
                    k,
                    f"chunk {fp.hex()[:8]} on {len(holders)} nodes",
                )

    def test_manifests_replicated_to_partners(self):
        n, k = 5, 3
        reports, cluster = run_dump(n, Strategy.COLL_DEDUP, k=k)
        for rank in range(n):
            holders = sum(
                1 for node in cluster.nodes if node.has_manifest(rank, 0)
            )
            assert holders == k  # own node + k-1 partners

    def test_window_traffic_matches_report(self):
        n = 5
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, strategy=Strategy.COLL_DEDUP,
                         f_threshold=4096)
        cluster = Cluster(n)
        world = World(n)
        reports = world.run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster)
        )
        for rank, r in enumerate(reports):
            exchange = world.comms[rank].trace.counters("exchange")
            # Batched hot path: one put per non-empty partner region; every
            # sent chunk still accounts for exactly one wire slot.
            assert exchange.put_msgs == sum(1 for c in r.sent_per_partner if c)
            assert exchange.chunks == r.sent_chunks

    def test_dump_ids_keep_checkpoints_separate(self):
        n = 4
        cluster = Cluster(n)
        run_dump(n, Strategy.COLL_DEDUP, cluster=cluster, dump_id=0)
        run_dump(n, Strategy.COLL_DEDUP, cluster=cluster, dump_id=1)
        for rank in range(n):
            assert cluster.nodes[rank].has_manifest(rank, 0)
            assert cluster.nodes[rank].has_manifest(rank, 1)


class TestShuffleModes:
    def test_no_shuffle_uses_identity_order(self):
        reports, _ = run_dump(6, Strategy.COLL_DEDUP, shuffle=False)
        assert [r.shuffle_position for r in reports] == list(range(6))

    def test_shuffle_positions_form_permutation(self):
        reports, _ = run_dump(6, Strategy.COLL_DEDUP, shuffle=True)
        assert sorted(r.shuffle_position for r in reports) == list(range(6))

    def test_baselines_ignore_shuffle_flag(self):
        for shuffle in (True, False):
            reports, _ = run_dump(4, Strategy.NO_DEDUP, shuffle=shuffle)
            assert [r.shuffle_position for r in reports] == list(range(4))


class TestEdgeCases:
    def test_single_rank_k1(self):
        reports, cluster = run_dump(1, Strategy.COLL_DEDUP, k=1)
        assert reports[0].sent_chunks == 0
        assert cluster.nodes[0].chunks.chunk_count > 0

    def test_k_larger_than_world(self):
        reports, _ = run_dump(3, Strategy.COLL_DEDUP, k=10)
        assert all(r.k == 3 for r in reports)

    def test_empty_dataset_rank(self):
        def factory(rank):
            if rank == 1:
                return Dataset([b""])
            return make_rank_dataset(rank)

        reports, cluster = run_dump(4, Strategy.COLL_DEDUP, dataset_factory=factory)
        assert reports[1].n_chunks == 0
        assert reports[1].sent_chunks == 0

    def test_uneven_dataset_sizes(self):
        """'it is not required for all processes to write the same amount of
        data' (Sec. III-A)."""

        def factory(rank):
            return Dataset([bytes([rank]) * (CS * (rank + 1))])

        reports, cluster = run_dump(4, Strategy.COLL_DEDUP, dataset_factory=factory)
        for rank, r in enumerate(reports):
            assert r.n_chunks == rank + 1


class TestGivenFingerprints:
    def test_a_column_of_the_wrong_length_raises_and_stores_nothing(self):
        n = 3
        cfg = DumpConfig(replication_factor=2, chunk_size=CS)
        cluster = Cluster(n)
        datasets = [make_rank_dataset(rank) for rank in range(n)]
        columns = [
            local_dedup_batched(ds, Fingerprinter(), CS).order[:-1]
            for ds in datasets
        ]
        with pytest.raises(WorldError, match="ValueError.*a column of"):
            World(n).run(
                lambda comm: dump_output(
                    comm, datasets[comm.rank], cfg, cluster,
                    fingerprints=columns[comm.rank],
                )
            )
        for node in cluster.nodes:
            assert node.chunks.chunk_count == 0
            assert not node.manifest_keys()


class TestReportFields:
    def test_field_names_are_pinned(self):
        """Every per-rank outcome of a dump, by name: a new field shows up
        here, beside ``DumpConfig``'s in ``test_config.py``."""
        assert [f.name for f in dataclasses.fields(DumpReport)] == [
            "rank", "strategy", "k", "n_chunks", "dataset_bytes",
            "hashed_bytes", "local_unique_chunks", "local_unique_bytes",
            "view_entries", "view_bytes", "reduction_rounds",
            "discarded_chunks", "stored_chunks", "stored_bytes",
            "received_chunks", "received_bytes", "sent_chunks", "sent_bytes",
            "sent_per_partner", "load", "shuffle_position", "partners",
            "manifest_bytes", "parity_stripes", "degraded", "dropped_chunks",
            "dropped_bytes",
        ]


def _callers(names):
    """name -> modules of ``src/repro`` that call it (by AST)."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    callers = {name: set() for name in names}
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None
                )
                if name in callers:
                    callers[name].add(path.relative_to(root.parent).as_posix())
    return callers


class TestCallers:
    def test_only_the_chain_calls_dump_output(self):
        """One dump model: every dump in ``src/repro`` is a chain epoch, so
        ``chain/manager.py`` is the only module that calls ``dump_output``."""
        assert _callers({"dump_output"}) == {
            "dump_output": {"repro/chain/manager.py"}
        }

    def test_only_place_sequences_placement(self):
        """One placement decision: ``core/offsets.py::place`` is the only
        caller of the shuffle, the partner walk and the window layout.  The
        exception is the dst oracle that re-derives the layout from the
        reported positions (``check_window_layout``)."""
        offsets, oracle = "repro/core/offsets.py", "repro/dst/invariants.py"
        assert _callers(
            {"rank_shuffle", "identity_shuffle", "partners_of", "window_layout"}
        ) == {
            "rank_shuffle": {offsets},
            "identity_shuffle": {offsets},
            "partners_of": {offsets, oracle},
            "window_layout": {offsets, oracle},
        }
