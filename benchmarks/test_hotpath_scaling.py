"""Observability overhead pins on the dump hot path.

Not a paper artifact: this pins what span-level tracing and the telemetry
timeline may cost on top of a dump, so regressions show up as hard
failures.  Small chunks, so per-chunk instrumentation cost — not raw SHA-1
throughput — is the measured quantity.  (Absolute dump rates, the
fingerprint-cache hit path included, are ``dump_MBps`` and
``core.fpcache.*`` in ``bench/``.)

The walls and overheads print under ``pytest -s``; nothing is written.
Set ``HOTPATH_SMOKE=1`` to run a fast correctness-only pass (CI smoke):
sizes shrink and the overhead budgets are reported but not asserted.
"""

import os
import time

import numpy as np
import pytest

from repro.core import DumpConfig, Strategy, dump_output
from repro.core.chunking import Dataset
from repro.simmpi import World
from repro.storage import Cluster

pytestmark = [pytest.mark.slow, pytest.mark.bench]

SMOKE = bool(int(os.environ.get("HOTPATH_SMOKE", "0")))

CS = 256                                 # small chunks -> per-chunk overhead dominates
N_RANKS = 4
REPS = 2 if SMOKE else 3
COLD_CHUNKS = 2048 if SMOKE else 16384   # per rank


def _rank_dataset(rank: int, n_chunks: int) -> Dataset:
    """Replication-friendly data: a shared 32-chunk pool tiled across the
    segment plus a short rank-unique tail (the paper's redundancy premise)."""
    pool_rng = np.random.RandomState(7)
    pool = [pool_rng.bytes(CS) for _ in range(32)]
    body = b"".join(pool[i % 32] for i in range(n_chunks - 8))
    tail = np.random.RandomState(1000 + rank).bytes(8 * CS)
    return Dataset([bytearray(body + tail)])


def _run_dump(datasets, strategy, k, trace_level=None):
    cfg = DumpConfig(
        replication_factor=k, chunk_size=CS, strategy=strategy,
        trace_level=trace_level,
    )
    cluster = Cluster(N_RANKS, dedup=(strategy is not Strategy.NO_DEDUP))
    world = World(N_RANKS, timeout=600)
    start = time.perf_counter()
    reports = world.run(
        lambda comm: dump_output(comm, datasets[comm.rank], cfg, cluster)
    )
    return time.perf_counter() - start, reports


def _best(fn, reps=REPS):
    """Best-of-N wall time (first result kept for accounting checks)."""
    wall, reports = fn()
    for _ in range(reps - 1):
        w, _r = fn()
        wall = min(wall, w)
    return wall, reports


def test_span_tracing_overhead():
    """Span-level tracing vs the disabled default on the cold dump.

    The default ``"phase"`` level is what every production dump runs at —
    span recording and metrics sit behind a single boolean there, so its
    wall-clock IS the no-overhead baseline the other benchmarks measure.
    This pins the *enabled* cost: the span-level dump records the full
    hierarchy (dump -> phases -> allreduce rounds), the chunk-size
    histogram and put latencies, and may not slow the dump by more than
    50% (it is typically a few percent; the bound is loose because tiny
    smoke dumps amplify fixed costs).  Both walls are printed.
    """
    datasets = [_rank_dataset(r, COLD_CHUNKS // 2) for r in range(N_RANKS)]
    k = N_RANKS

    _run_dump(datasets, Strategy.NO_DEDUP, k)  # warm-up
    phase_wall, _ = _best(lambda: _run_dump(datasets, Strategy.NO_DEDUP, k))
    span_wall, _ = _best(
        lambda: _run_dump(datasets, Strategy.NO_DEDUP, k, trace_level="span")
    )

    overhead = span_wall / phase_wall - 1.0
    print()
    print(f"-- span tracing, no-dedup, {N_RANKS} ranks, K={k}, "
          f"{COLD_CHUNKS // 2} x {CS} B chunks per rank --")
    print(f"phase level {phase_wall:.4f} s, span level {span_wall:.4f} s, "
          f"overhead {overhead * 100:.1f}% (budget: 50%)")
    if not SMOKE:
        assert overhead <= 0.5, (
            f"span-level tracing slowed the dump by "
            f"{overhead * 100:.1f}% (budget: 50%)"
        )


def test_timeline_overhead():
    """Telemetry timeline vs ``timeline_capacity=0`` on the service dump.

    Every service dump lands one tick-tagged sample on the timeline plus
    a handful of sketch observations — a few dict inserts against a dump
    that moves megabytes, so the instrumentation must be effectively free.
    This pins that claim at 5% (sibling of the span-tracing bound above,
    but far tighter: the timeline is always on in production serves,
    whereas span tracing is opt-in).  Both walls are printed.
    """
    from repro.svc import CheckpointService, TenantWorkload

    dumps = 4 if SMOKE else 6
    chunks = 512 if SMOKE else 2048

    def run(capacity):
        cfg = DumpConfig(replication_factor=2, chunk_size=CS)
        service = CheckpointService(
            N_RANKS, config=cfg, timeline_capacity=capacity
        )
        service.register_tenant("bench")
        start = time.perf_counter()
        for i in range(dumps):
            service.submit("bench", TenantWorkload(
                0, overlap=0.5, chunks_per_rank=chunks, chunk_size=CS,
                dump_index=i,
            ))
            service.drain()
        wall = time.perf_counter() - start
        return wall, service.timeline.recorded

    run(0)  # warm-up
    disabled_wall, _ = _best(lambda: run(0))
    enabled_wall, recorded = _best(lambda: run(4096))
    assert recorded == dumps  # the enabled runs actually recorded

    overhead = enabled_wall / disabled_wall - 1.0
    print()
    print(f"-- telemetry timeline, local-dedup service, {N_RANKS} ranks, K=2, "
          f"{dumps} dumps of {chunks} x {CS} B chunks per rank --")
    print(f"disabled {disabled_wall:.4f} s, enabled {enabled_wall:.4f} s, "
          f"overhead {overhead * 100:.1f}% (budget: 5%)")
    if not SMOKE:
        assert overhead <= 0.05, (
            f"timeline recording slowed the service dump by "
            f"{overhead * 100:.1f}% (budget: 5%)"
        )
