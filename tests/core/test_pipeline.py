"""Pipelined dump: eligibility gating, byte-identity, overlap evidence.

Cross-backend identity of the pipelined dump is proven in
``tests/integration/test_backend_equivalence.py``; this file covers the
single-backend contracts — which configs may pipeline at all, that the
2-stage form engages for configs the 3-stage form must refuse (compression,
fingerprint cache), and that a span-level pipelined run records the
``pipeline`` spans and per-rank overlap gauge the analyzer consumes.
"""

import pytest

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.pipeline import pipeline_eligible, pipeline_full_eligible
from repro.core.runner import run_collective
from repro.obs.analyzer import pipeline_stage_overlap
from repro.obs.export import capture_run
from repro.storage import Cluster

from tests.conftest import make_rank_dataset

CS = 64
N = 4
TIMEOUT = 60


def cfg(**kw):
    kw.setdefault("replication_factor", 3)
    kw.setdefault("chunk_size", CS)
    kw.setdefault("f_threshold", 4096)
    kw.setdefault("pipelined", True)
    return DumpConfig(**kw)


def dump(config, dump_id=0, cluster=None):
    cluster = cluster if cluster is not None else Cluster(N)
    reports, world = run_collective(
        N,
        lambda comm: dump_output(
            comm, make_rank_dataset(comm.rank), config, cluster,
            dump_id=dump_id,
        ),
        cluster=cluster,
        backend="thread",
        timeout=TIMEOUT,
    )
    return cluster, reports, world


def stored(cluster):
    return [
        sorted((fp, n.chunks.refcount(fp), n.chunks.get(fp))
               for fp in n.chunks.fingerprints())
        for n in cluster.nodes
    ]


class TestEligibility:
    def test_requires_pipelined_flag(self):
        assert pipeline_eligible(cfg())
        assert pipeline_eligible(cfg(chunking="cdc"))
        assert not pipeline_eligible(cfg(pipelined=False))

    def test_degraded_and_parity_fall_back(self):
        """A dead node in the liveness snapshot falls back to the strict
        path: no pipeline span, the strict dump's cluster and reports."""
        assert pipeline_eligible(cfg(), alive=[True] * N)
        assert not pipeline_eligible(cfg(), alive=[True, False, True, True])
        assert not pipeline_full_eligible(
            cfg(strategy=Strategy.NO_DEDUP), None, alive=[False] + [True] * 3
        )
        assert not pipeline_eligible(cfg(redundancy="parity"))
        runs = []
        for pipelined in (True, False):
            cluster = Cluster(N)
            cluster.fail_node(2)
            runs.append(dump(
                cfg(strategy=Strategy.NO_DEDUP, pipelined=pipelined,
                    trace_level="span"),
                cluster=cluster,
            ))
        (pipe, pipe_reports, world), (strict, strict_reports, _w) = runs
        assert pipeline_stage_overlap(capture_run(world))["stages"] == {}
        assert stored(pipe) == stored(strict)
        assert [vars(r) for r in pipe_reports] == [vars(r) for r in strict_reports]
        assert all(r.degraded for r in pipe_reports)

    def test_full_form_needs_no_dedup_fixed_uncompressed_no_cache(self):
        base = cfg(strategy=Strategy.NO_DEDUP)
        assert pipeline_full_eligible(base, fingerprints=None)
        assert not pipeline_full_eligible(
            cfg(strategy=Strategy.COLL_DEDUP), fingerprints=None
        )
        assert not pipeline_full_eligible(
            cfg(strategy=Strategy.NO_DEDUP, compress="rle"), fingerprints=None
        )
        # CDC's chunk count depends on the content, so the Load vector is
        # not known before hashing.
        assert not pipeline_full_eligible(
            cfg(strategy=Strategy.NO_DEDUP, chunking="cdc"), fingerprints=None
        )
        assert not pipeline_full_eligible(base, fingerprints=[])


class TestByteIdentity:
    @pytest.mark.parametrize("compress", [None, "rle"])
    def test_pipelined_matches_strict(self, compress):
        """Both pipeline forms (3-stage when compress is None, 2-stage
        otherwise) must leave the exact cluster contents of a strict dump."""
        pipe, _r1, _w1 = dump(
            cfg(strategy=Strategy.NO_DEDUP, compress=compress)
        )
        strict, _r2, _w2 = dump(
            cfg(strategy=Strategy.NO_DEDUP, compress=compress,
                pipelined=False)
        )
        assert stored(pipe) == stored(strict)
        assert [
            sorted(n.manifest_keys()) for n in pipe.nodes
        ] == [sorted(n.manifest_keys()) for n in strict.nodes]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_cdc_rides_the_two_stage_pipeline(self, strategy):
        """Content-defined chunks go through the same batched exchange, so
        a pipelined CDC dump engages (exchange + write stages only: the
        3-stage form needs the fixed grid), leaves a strict dump's cluster
        contents and reports, and restores byte-equal."""
        kw = dict(strategy=strategy, chunking="cdc", chunk_size=2 * CS,
                  trace_level="span")
        pipe, pipe_reports, world = dump(cfg(**kw))
        strict, strict_reports, _w = dump(cfg(pipelined=False, **kw))
        stages = pipeline_stage_overlap(capture_run(world))["stages"]
        assert set(stages) == {"exchange", "write"}
        assert stored(pipe) == stored(strict)
        assert [vars(r) for r in pipe_reports] == [vars(r) for r in strict_reports]
        for rank in range(N):
            restored, _ = restore_dataset(pipe, rank)
            assert restored == make_rank_dataset(rank)

    def test_reports_match_strict(self):
        _c1, pipe_reports, _w1 = dump(cfg(strategy=Strategy.NO_DEDUP))
        _c2, strict_reports, _w2 = dump(
            cfg(strategy=Strategy.NO_DEDUP, pipelined=False)
        )
        for a, b in zip(pipe_reports, strict_reports):
            assert a.load == b.load
            assert a.sent_per_partner == b.sent_per_partner
            assert (a.stored_chunks, a.stored_bytes) == (
                b.stored_chunks, b.stored_bytes
            )
            assert (a.n_chunks, a.hashed_bytes) == (b.n_chunks, b.hashed_bytes)


class TestOverlapEvidence:
    def test_span_run_records_pipeline_spans_and_gauge(self):
        config = cfg(
            strategy=Strategy.NO_DEDUP, hash_name="xx128",
            trace_level="span",
        )
        _cluster, _reports, world = dump(config)
        run = capture_run(world, meta={"pipelined": True})
        result = pipeline_stage_overlap(run)
        assert set(result["stages"]) == {"hash", "exchange", "write"}
        assert result["active_s"] > 0
        gauges = result["rank_write_prefence_ratio"]
        assert sorted(gauges) == list(range(N))
        assert all(g > 0 for g in gauges.values())

    def test_strict_run_records_no_pipeline_spans(self):
        config = cfg(
            strategy=Strategy.NO_DEDUP, pipelined=False,
            trace_level="span",
        )
        _cluster, _reports, world = dump(config)
        result = pipeline_stage_overlap(capture_run(world))
        assert result["stages"] == {}
        assert result["rank_write_prefence_ratio"] == {}
