"""Pipeline-wide property tests: the paper's guarantees under random
workloads.

Hypothesis generates arbitrary per-rank fingerprint multisets; for every
strategy/K/shuffle combination the simulated dump must satisfy the
invariants the paper's correctness rests on:

* conservation — chunks sent == chunks received, globally and per edge;
* safety — a rank discards a chunk only if K other ranks store it;
* coverage — every fingerprint ends up on >= min(K, world) ranks when
  every holder participates in replication (baselines), and >= K for
  coll-dedup via designated stores + top-ups (rank-level, allowing for
  partner/designee collisions, which the metric reports);
* exactness — window layouts tile exactly; loads match plans.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DumpConfig, Strategy
from repro.core.local_dedup import index_from_fingerprints
from repro.sim import compute_metrics, simulate_dump


def fp(i: int) -> bytes:
    return i.to_bytes(2, "little") * 10


workload_st = st.lists(  # per rank: a list of chunk ids (duplicates allowed)
    st.lists(st.integers(0, 40), min_size=0, max_size=30),
    min_size=1,
    max_size=10,
)


def make_indices(per_rank_ids):
    return [
        index_from_fingerprints([fp(i) for i in ids], chunk_size=64)
        for ids in per_rank_ids
    ]


@given(workload_st, st.integers(1, 5), st.sampled_from(list(Strategy)),
       st.booleans())
@settings(max_examples=60)
def test_conservation_and_layout(per_rank_ids, k, strategy, shuffle):
    indices = make_indices(per_rank_ids)
    cfg = DumpConfig(replication_factor=k, chunk_size=64, strategy=strategy,
                     f_threshold=4096, shuffle=shuffle)
    result = simulate_dump(indices, cfg)

    sent = sum(r.sent_chunks for r in result.reports)
    recv = sum(r.received_chunks for r in result.reports)
    assert sent == recv
    assert sum(r.sent_bytes for r in result.reports) == sum(
        r.received_bytes for r in result.reports
    )
    result.placement.layout.check_invariants()
    # Window sizes equal the planned send loads.
    for rank, plan in enumerate(result.plans):
        assert plan.load == result.reports[rank].load


@given(workload_st, st.integers(2, 4))
@settings(max_examples=60)
def test_discard_safety(per_rank_ids, k):
    """A discarded chunk must be stored by >= min(k, holders) other ranks."""
    indices = make_indices(per_rank_ids)
    cfg = DumpConfig(replication_factor=k, chunk_size=64,
                     strategy=Strategy.COLL_DEDUP, f_threshold=4096)
    result = simulate_dump(indices, cfg)
    world = len(indices)
    k_eff = min(k, world)
    for rank, plan in enumerate(result.plans):
        for discarded in plan.discarded_fps:
            holders = result.placements.get(discarded, set())
            assert rank not in holders or discarded in plan.store_fps
            assert len(holders) >= k_eff


@given(workload_st, st.integers(1, 4))
@settings(max_examples=60)
def test_every_chunk_placed(per_rank_ids, k):
    """No fingerprint may vanish: every chunk of every rank has a holder,
    and coll-dedup reaches the rank-level replication target up to partner
    collisions (which only ever reduce distinct holders, never below 1)."""
    indices = make_indices(per_rank_ids)
    cfg = DumpConfig(replication_factor=k, chunk_size=64,
                     strategy=Strategy.COLL_DEDUP, f_threshold=4096)
    result = simulate_dump(indices, cfg)
    world = len(indices)
    k_eff = min(k, world)
    for idx in indices:
        for f_ in idx.counts:
            holders = result.placements.get(f_, set())
            assert holders, "chunk lost"
    metrics = compute_metrics(indices, result)
    if result.placements:
        assert metrics.effective_replication_min >= 1
        # With designated stores + per-designee distinct partners, the only
        # shortfall source is a top-up landing on another designated rank.
        assert metrics.effective_replication_avg >= min(2, k_eff) * 0.75


@given(workload_st, st.integers(2, 4))
@settings(max_examples=40)
def test_baselines_hit_exact_replication(per_rank_ids, k):
    """no-dedup/local-dedup replicate to k-1 *distinct* successive ranks:
    every chunk is on exactly min(k, world) distinct ranks at least."""
    indices = make_indices(per_rank_ids)
    world = len(indices)
    k_eff = min(k, world)
    for strategy in (Strategy.NO_DEDUP, Strategy.LOCAL_DEDUP):
        cfg = DumpConfig(replication_factor=k, chunk_size=64, strategy=strategy,
                         f_threshold=4096)
        result = simulate_dump(indices, cfg)
        for f_, holders in result.placements.items():
            assert len(holders) >= k_eff


@given(workload_st)
@settings(max_examples=40)
def test_coll_never_sends_more_than_local(per_rank_ids):
    """The headline guarantee: collective dedup can only remove work."""
    indices = make_indices(per_rank_ids)
    totals = {}
    for strategy in (Strategy.LOCAL_DEDUP, Strategy.COLL_DEDUP):
        cfg = DumpConfig(replication_factor=3, chunk_size=64, strategy=strategy,
                         f_threshold=4096)
        result = simulate_dump(indices, cfg)
        totals[strategy] = sum(r.sent_chunks for r in result.reports)
    assert totals[Strategy.COLL_DEDUP] <= totals[Strategy.LOCAL_DEDUP]
