"""The checked-in seed corpus: freshness, coverage and green replay.

This is the same set of scenarios the CI fuzz-smoke job replays; keeping
a fast copy in tier-1 means a PR that breaks an invariant fails the normal
test run too, not just the separate fuzz job.
"""

import pytest

from repro.dst import (
    CORPUS_SEEDS,
    default_corpus_dir,
    generate_scenario,
    iter_corpus,
)

pytestmark = pytest.mark.smoke


def test_corpus_files_match_generator():
    """The JSON files are the source of truth for CI; they must not drift
    from what the generator produces for their recorded seeds (regenerate
    with ``repro.dst.write_corpus`` after changing the generator)."""
    entries = list(iter_corpus(default_corpus_dir()))
    assert [s.seed for _p, s in entries] == sorted(CORPUS_SEEDS)
    for _path, scenario in entries:
        assert scenario == generate_scenario(scenario.seed)


def _max_chain_depth(scenario) -> int:
    """Deepest ancestor path any epoch of a chain scenario reaches (a
    full resets the chain, a compact rewrites the tip into a full)."""
    depth = 0
    deepest = 0
    for st in scenario.steps:
        if st.op == "dump":
            depth = 1 if st.kind == "full" else depth + 1
            deepest = max(deepest, depth)
        elif st.op == "compact":
            depth = min(depth, 1)
    return deepest


def test_corpus_covers_the_feature_matrix():
    feats = set()
    for _path, s in iter_corpus(default_corpus_dir()):
        if s.redundancy == "parity":
            feats.add("parity")
        if s.workload_mode == "repeat":
            feats.add("repeat")
        if s.differential:
            feats.add("differential")
        if s.compress:
            feats.add("compress")
        if any(st.op == "crash" for st in s.steps):
            feats.add("crash")
        if any(st.crash is not None for st in s.steps):
            feats.add("mid-dump")
        if any(st.op == "repair" for st in s.steps):
            feats.add("repair")
        if s.pipelined and s.integrity == "fast":
            feats.add("pipelined-fast")
        if s.tenants > 1:
            feats.add("multi-tenant")
        if s.tenants > 1 and any(st.op == "gc" for st in s.steps):
            feats.add("tenant-gc")
        if s.shard_count > 1:
            feats.add("sharded")
        if s.strategy == "coll-dedup" and s.f_threshold < 4096:
            feats.add("f-cap")
        if s.tenants > 1 and any(st.kind == "delta" for st in s.steps):
            feats.add("tenant-delta")
        if s.arrival == "bursty":
            feats.add("bursty")
        if any(st.op == "tick" for st in s.steps):
            feats.add("tick")
        if s.chain:
            feats.add("chain")
            if any(
                st.op == "dump" and st.kind == "delta" for st in s.steps
            ):
                feats.add("chain-delta")
            if any(st.op == "prune" for st in s.steps):
                feats.add("chain-prune")
            if any(st.op == "compact" for st in s.steps):
                feats.add("chain-compact")
            if any(
                st.op == "crash" or (
                    st.op == "dump" and st.crash is not None
                )
                for st in s.steps
            ):
                feats.add("chain-crash")
            if s.differential:
                feats.add("chain-differential")
            if _max_chain_depth(s) >= 8:
                feats.add("chain-deep")
    assert feats >= {
        "parity", "repeat", "differential", "compress",
        "crash", "mid-dump", "repair", "pipelined-fast",
        "multi-tenant", "tenant-gc", "sharded", "f-cap", "tenant-delta",
        "bursty", "tick",
        "chain", "chain-delta", "chain-prune", "chain-compact",
        "chain-crash", "chain-differential", "chain-deep",
    }


@pytest.mark.parametrize("seed", sorted(CORPUS_SEEDS))
def test_corpus_scenario_upholds_all_invariants(seed, memo):
    result = memo.run(generate_scenario(seed))
    assert result.ok, [v.as_dict() for v in result.violations]


def test_first_window_is_green(memo):
    """Seeds 0-149 on the thread backend: the corpus replay alone did not
    notice when a production change turned two seeds outside it red (the
    differential halves stay with CI's 0-1199 window)."""
    red = [
        seed for seed in range(150)
        if not memo.execute(generate_scenario(seed), backend="thread").ok
    ]
    assert red == []


def test_corpus_keeps_the_two_multi_tenant_chain_shapes(memo):
    """330: tenants with the same content, and a prune that pins a base
    whose chunks the other tenant's live epochs share (the schedule behind
    "a pin outlives its chunks").  851: bursty arrival with a crash in the
    middle of a delta, replayed on both backends."""
    shared = generate_scenario(330)
    assert shared.chain and shared.tenants == 2
    assert shared.make_chain_workload(1).seed == (
        shared.make_chain_workload(0).seed
    )
    prunes = [
        doc for doc in memo.run(shared).steps
        if doc["op"] == "prune" and doc.get("pinned")
    ]
    assert any(doc["retained_cross_tenant"] > 0 for doc in prunes)
    bursty = generate_scenario(851)
    assert bursty.chain and bursty.tenants > 1 and bursty.differential
    assert bursty.arrival == "bursty"
    assert any(
        st.kind == "delta" and st.crash is not None for st in bursty.steps
    )


def test_corpus_keeps_an_alert_firing_bursty_seed(memo):
    """At least one corpus scenario must drive the queue-wait SLO into a
    fire event, so the burn-rate engine's alert path (and the
    slo-determinism replay over it) stays exercised by every CI run —
    a corpus of quiet scenarios would let the alerting logic rot."""
    fired = []
    for _path, s in iter_corpus(default_corpus_dir()):
        if s.arrival != "bursty":
            continue
        result = memo.run(s)
        assert result.ok, [v.as_dict() for v in result.violations]
        assert result.slo is not None
        if result.slo["alert_count"]:
            fired.append(s.seed)
            assert any(
                a["event"] == "fire" for a in result.slo["alerts"]
            )
    assert fired, "no bursty corpus seed fires its SLO"
