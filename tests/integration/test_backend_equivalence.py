"""Thread vs process backend equivalence over the full dump/restore/repair
stack: identical ``DumpReport``s, byte-identical manifests and cluster
contents, identical restored datasets.

These are the tests that make the process backend safe to use as a drop-in
accelerator: everything a caller can observe — reports, cluster accounting,
restores — must be indistinguishable from a thread-backend run.
"""

import dataclasses

import pytest

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.runner import run_collective
from repro.repair import repair_cluster, scan_cluster
from repro.storage import Cluster, FailureInjector

from tests.conftest import make_rank_dataset, own_shm_segments

BACKENDS = ["thread", "process"]
CS = 64
N = 4
TIMEOUT = 60


def cluster_state(cluster):
    """Everything observable about a cluster, in comparable form."""
    nodes = []
    for node in cluster.nodes:
        cs = node.chunks
        nodes.append(
            {
                "node": node.node_id,
                "alive": node.alive,
                "logical": cs.logical_bytes,
                "physical": cs.physical_bytes,
                "puts": cs.put_count,
                "chunks": sorted(
                    (fp, cs.refcount(fp), cs.get(fp)) for fp in cs.fingerprints()
                ),
                "manifests": sorted(
                    (key, node.get_manifest_blob(*key))
                    for key in node.manifest_keys()
                ),
                "parity_bytes": node.parity_bytes,
            }
        )
    return nodes


def comparable_report(report):
    """A report as a nested dict with wall-clock timings zeroed (the only
    field legitimately allowed to differ across backends)."""
    d = dataclasses.asdict(report)
    for counters in d.get("phases", {}).values():
        counters["seconds"] = 0.0
    return d


def dump_once(
    backend,
    strategy,
    *,
    dead=(),
    k=3,
    dump_id=0,
    pipelined=False,
    hash_name="sha1",
    shard_count=1,
):
    cfg = DumpConfig(
        replication_factor=k,
        chunk_size=CS,
        f_threshold=4096,
        strategy=strategy,
        pipelined=pipelined,
        hash_name=hash_name,
    )
    cluster = Cluster(N, shard_count=shard_count)
    for node_id in dead:
        cluster.fail_node(node_id)
    reports, _world = run_collective(
        N,
        lambda comm: dump_output(
            comm, make_rank_dataset(comm.rank), cfg, cluster, dump_id=dump_id
        ),
        cluster=cluster,
        backend=backend,
        timeout=TIMEOUT,
    )
    return cluster, reports


class TestDumpEquivalence:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_reports_cluster_and_restores_identical(self, strategy):
        observed = {}
        for backend in BACKENDS:
            cluster, reports = dump_once(backend, strategy)
            restored = [
                restore_dataset(cluster, rank, 0)[0].to_bytes() for rank in range(N)
            ]
            observed[backend] = (
                [dataclasses.astuple(r) for r in reports],
                cluster_state(cluster),
                restored,
            )
        t, p = observed["thread"], observed["process"]
        assert t[0] == p[0], "DumpReports differ across backends"
        assert t[1] == p[1], "cluster contents differ across backends"
        assert t[2] == p[2], "restored datasets differ across backends"
        for rank in range(N):
            assert t[2][rank] == make_rank_dataset(rank).to_bytes()

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("hash_name", ["sha1", "xx128"])
    def test_pipelined_dump_identical_across_backends(
        self, strategy, hash_name
    ):
        """The double-buffered pipelined dump and the vectorised
        non-cryptographic fingerprint mode are observably identical across
        backends, and identical to the strict phase-ordered dump."""
        observed = {}
        for backend in BACKENDS:
            cluster, reports = dump_once(
                backend, strategy, pipelined=True, hash_name=hash_name
            )
            restored = [
                restore_dataset(cluster, rank, 0)[0].to_bytes()
                for rank in range(N)
            ]
            observed[backend] = (
                [dataclasses.astuple(r) for r in reports],
                cluster_state(cluster),
                restored,
            )
        assert observed["thread"] == observed["process"]
        # Pipelining must not change what lands in the cluster: a strict
        # dump of the same config yields byte-identical contents.
        strict, _ = dump_once(
            "thread", strategy, pipelined=False, hash_name=hash_name
        )
        assert cluster_state(strict) == observed["thread"][1]
        for rank in range(N):
            assert observed["thread"][2][rank] == (
                make_rank_dataset(rank).to_bytes()
            )

    def test_consecutive_dumps_identical(self):
        observed = {}
        for backend in BACKENDS:
            cfg = DumpConfig(
                replication_factor=3, chunk_size=CS, f_threshold=4096
            )
            cluster = Cluster(N)
            for dump_id in range(2):
                run_collective(
                    N,
                    lambda comm: dump_output(
                        comm,
                        make_rank_dataset(comm.rank),
                        cfg,
                        cluster,
                        dump_id=dump_id,
                    ),
                    cluster=cluster,
                    backend=backend,
                    timeout=TIMEOUT,
                )
            observed[backend] = cluster_state(cluster)
        assert observed["thread"] == observed["process"]


class TestShardedStoreEquivalence:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("shard_count", [2, 8])
    def test_sharded_cluster_identical_to_flat(self, strategy, shard_count):
        """A cluster on sharded chunk stores is observably identical to the
        flat-store cluster on both backends: same reports, same chunk
        payloads/refcounts/accounting, same restored bytes.  This is what
        lets the multi-tenant service turn sharding on without changing
        anything the dump/restore/repair stack can see."""
        observed = {}
        for backend in BACKENDS:
            cluster, reports = dump_once(
                backend, strategy, shard_count=shard_count
            )
            restored = [
                restore_dataset(cluster, rank, 0)[0].to_bytes()
                for rank in range(N)
            ]
            observed[backend] = (
                [dataclasses.astuple(r) for r in reports],
                cluster_state(cluster),
                restored,
            )
        assert observed["thread"] == observed["process"]
        flat_cluster, flat_reports = dump_once("thread", strategy)
        assert observed["thread"][0] == [
            dataclasses.astuple(r) for r in flat_reports
        ]
        assert observed["thread"][1] == cluster_state(flat_cluster)

    @pytest.mark.parametrize("shard_count", [2, 8])
    def test_sharded_repair_identical_to_flat(self, shard_count):
        observed = {}
        for layout in (1, shard_count):
            cluster, _reports = dump_once(
                "thread", Strategy.COLL_DEDUP, shard_count=layout
            )
            FailureInjector(cluster, seed=7).fail_random_nodes(2)
            report = repair_cluster(cluster, 3, timeout=TIMEOUT)
            observed[layout] = (
                cluster_state(cluster),
                comparable_report(report),
                scan_cluster(cluster, 3).deficit_chunks,
            )
        assert observed[1] == observed[shard_count]
        assert observed[shard_count][2] == 0


class TestDegradedDumpEquivalence:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_dead_node_dump_identical(self, strategy):
        observed = {}
        for backend in BACKENDS:
            cluster, reports = dump_once(backend, strategy, dead=(1,))
            restored = [
                restore_dataset(cluster, rank, 0)[0].to_bytes() for rank in range(N)
            ]
            observed[backend] = (
                [dataclasses.astuple(r) for r in reports],
                cluster_state(cluster),
                restored,
            )
        assert observed["thread"] == observed["process"]
        assert any(r.degraded for r in reports)


class TestRepairEquivalence:
    def test_repair_results_identical(self):
        observed = {}
        for backend in BACKENDS:
            cluster, _reports = dump_once(backend, Strategy.COLL_DEDUP)
            FailureInjector(cluster, seed=7).fail_random_nodes(2)
            report = repair_cluster(cluster, 3, timeout=TIMEOUT, backend=backend)
            scan_after = scan_cluster(cluster, 3)
            observed[backend] = (
                cluster_state(cluster),
                comparable_report(report),
                scan_after.deficit_chunks,
            )
        assert observed["thread"] == observed["process"]
        assert observed["process"][2] == 0, "repair left deficits"


    def test_blank_replacement_node_repaired_identically(self):
        """The bench's cycle: a node is replaced by a blank one and repair
        refills it.  On the process backend the senders read chunks their
        stores hold as views of the dump's result segments, and the refill
        arrives as views of the repair's; the cluster is the thread
        backend's byte for byte and /dev/shm ends as it began."""
        from repro.dst import cluster_digest

        before = own_shm_segments()
        digests = {}
        for backend in BACKENDS:
            cluster, _reports = dump_once(backend, Strategy.COLL_DEDUP)
            node = cluster.nodes[1]
            cluster.fail_node(1)
            node.chunks.clear()
            for key in node.manifest_keys():
                node.drop_manifest(*key)
            node.alive = True
            report = repair_cluster(cluster, 3, timeout=TIMEOUT, backend=backend)
            assert report.complete and report.bytes_moved == report.deficit_bytes > 0
            assert scan_cluster(cluster, 3).clean
            digests[backend] = (cluster_digest(cluster), cluster_state(cluster))
        assert digests["thread"] == digests["process"]
        kinds = {type(cluster.nodes[1].chunks.get(fp)) for fp in cluster.nodes[1].chunks.fingerprints()}
        assert kinds == {memoryview}, "the process repair's refill is adopted, not copied"
        assert own_shm_segments() <= before


class TestCheckpointRuntimeEquivalence:
    def test_run_checkpointed_merges_cluster_back(self):
        """Application checkpoints through the service: a process-backend
        run merges every rank's writes back into the service's cluster,
        which ends up identical to a thread-backend run."""
        from repro.apps.memory import MemoryRegistry
        from repro.dst import cluster_digest
        from repro.svc import CheckpointService

        observed = {}
        for backend in BACKENDS:
            cfg = DumpConfig(replication_factor=2, chunk_size=CS, f_threshold=4096)
            service = CheckpointService(N, cfg, backend=backend, timeout=TIMEOUT)
            service.register_tenant("app")
            registry = MemoryRegistry()
            states = [bytearray(make_rank_dataset(r).to_bytes()) for r in range(N)]
            for rank, state in enumerate(states):
                registry.register(rank, "state", state)
            kinds = []
            for step in range(1, 5):
                for state in states:
                    state[:8] = bytes([step]) * 8
                if step % 2 == 0:
                    service.submit("app", registry, kind="delta")
                    kinds += [outcome.kind for outcome in service.drain()]
            cluster = service.cluster
            observed[backend] = (kinds, cluster_digest(cluster), cluster_state(cluster))
        assert observed["thread"] == observed["process"]
        assert observed["process"][0] == ["full", "delta"]
        # The service's cluster holds every checkpoint's manifests.
        for node in service.chain_of("app").nodes.values():
            for rank in range(N):
                assert cluster.find_manifest(rank, node.dump_id) is not None
