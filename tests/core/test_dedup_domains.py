"""Dedup domains: bounded-scope reduction (DumpConfig.dedup_domain_size)."""

import pytest

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.fingerprint import Fingerprinter
from repro.core.local_dedup import local_dedup_batched
from repro.sim import simulate_dump
from repro.simmpi import World
from repro.storage import Cluster

from tests.conftest import make_rank_dataset

CS = 64


def indices_for(n):
    fpr = Fingerprinter("sha1")
    return [local_dedup_batched(make_rank_dataset(r), fpr, CS) for r in range(n)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dedup_domain_size"):
            DumpConfig(dedup_domain_size=0)


class TestSimulatedDomains:
    def test_domain_views_are_local(self):
        """With domains of 2, a chunk shared by ranks 0 and 5 (different
        domains) is not globally deduplicated — each domain sees freq 1."""
        n = 6
        indices = indices_for(n)
        global_cfg = DumpConfig(replication_factor=3, chunk_size=CS,
                                f_threshold=4096)
        domain_cfg = global_cfg.with_(dedup_domain_size=2)
        global_res = simulate_dump(indices, global_cfg)
        domain_res = simulate_dump(indices, domain_cfg)
        # Domain dedup finds less redundancy => more traffic.
        assert sum(r.sent_chunks for r in domain_res.reports) >= sum(
            r.sent_chunks for r in global_res.reports
        )
        # ... but fewer reduction rounds (log2(2)+... < log2(6)+...).
        assert len(domain_res.reduction_level_nbytes) < len(
            global_res.reduction_level_nbytes
        )

    def test_domain_size_one_equals_local_dedup_traffic(self):
        """Domains of 1: nothing to deduplicate across ranks — traffic
        matches local-dedup exactly."""
        n = 6
        indices = indices_for(n)
        domain = simulate_dump(
            indices,
            DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096,
                       dedup_domain_size=1, shuffle=False),
        )
        local = simulate_dump(
            indices,
            DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096,
                       strategy=Strategy.LOCAL_DEDUP),
        )
        assert sum(r.sent_chunks for r in domain.reports) == sum(
            r.sent_chunks for r in local.reports
        )

    def test_domain_covering_world_equals_global(self):
        n = 6
        indices = indices_for(n)
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096)
        global_res = simulate_dump(indices, cfg)
        domain_res = simulate_dump(indices, cfg.with_(dedup_domain_size=n))
        for a, b in zip(global_res.reports, domain_res.reports):
            assert a.sent_bytes == b.sent_bytes
            assert a.stored_bytes == b.stored_bytes

    def test_monotone_in_domain_size(self):
        """Bigger domains can only find more redundancy."""
        n = 8
        indices = indices_for(n)
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096)
        sent = []
        for d in (1, 2, 4, 8):
            res = simulate_dump(indices, cfg.with_(dedup_domain_size=d))
            sent.append(sum(r.sent_chunks for r in res.reports))
        assert sent == sorted(sent, reverse=True)


class TestThreadedDomains:
    @pytest.mark.parametrize("domain", [1, 2, 3, 4])
    def test_threaded_matches_simulator(self, domain):
        n = 8
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096,
                         dedup_domain_size=domain)
        cluster = Cluster(n)
        threaded = World(n).run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster)
        )
        sim = simulate_dump(indices_for(n), cfg)
        for rank in range(n):
            for field in ("sent_bytes", "received_bytes", "stored_bytes",
                          "discarded_chunks", "view_entries", "load"):
                assert getattr(threaded[rank], field) == getattr(
                    sim.reports[rank], field
                ), (domain, rank, field)

    def test_roundtrip_with_domains(self):
        n = 6
        cfg = DumpConfig(replication_factor=3, chunk_size=CS, f_threshold=4096,
                         dedup_domain_size=2)
        cluster = Cluster(n)
        World(n).run(
            lambda comm: dump_output(comm, make_rank_dataset(comm.rank), cfg, cluster)
        )
        cluster.fail_node(1)
        cluster.fail_node(4)
        for rank in range(n):
            restored, _ = restore_dataset(cluster, rank)
            assert restored == make_rank_dataset(rank)
