"""The dst chain dimension: generator draws, executor loop, chain
invariants, differential determinism and shrinker support.

Chain scenarios replace the plain dump schedule with an incremental
checkpoint chain: one base full, mostly-delta epochs over an
epoch-evolving workload, prune/compact maintenance and the same
crash/repair machinery as the base loop.  The invariant battery swaps the
per-dump restore check (a chain delta is not independently restorable by
design) for three chain oracles: restore-to-any-epoch byte-equality
against the per-epoch workload oracle, refcount conservation and
structural integrity.
"""

import pytest

from repro.dst.executor import differential_check, execute_scenario
from repro.dst.generator import generate_scenario
from repro.dst.scenario import Scenario, ScenarioError, Step
from repro.dst.shrinker import shrink

pytestmark = pytest.mark.smoke

#: chain seeds with distinct shapes (found by scanning the generator):
#: crashes + compacts / long prune-heavy run / natural corpus flip
CHAIN_SEEDS = (16, 81, 45)
#: differential chain seed with prune + compact
DIFF_SEED = 85
#: differential chain seed reaching depth 8 with two compactions
DEEP_SEED = 722

CHAIN_CHECKS = ("chain-structure", "chain-refcounts", "chain-restore")


def chain_scenario(**overrides):
    """A small hand-built chain scenario covering every chain step op."""
    base = dict(
        seed=1234,
        n_ranks=3,
        k=2,
        chunk_size=64,
        chunks_per_rank=5,
        strategy="coll-dedup",
        redundancy="replication",
        chain=True,
        steps=(
            Step("dump", kind="full"),
            Step("dump", kind="delta"),
            Step("crash", node=2),
            Step("repair"),
            Step("dump", kind="delta"),
            Step("prune"),
            Step("compact"),
            Step("dump", kind="delta"),
        ),
    )
    base.update(overrides)
    return Scenario(**base)


class TestGenerator:
    def test_generator_draws_chain_scenarios(self):
        chains = [
            s for s in map(generate_scenario, range(150)) if s.chain
        ]
        assert len(chains) >= 10

    def test_chain_draw_respects_its_gates(self):
        for s in map(generate_scenario, range(200)):
            if not s.chain:
                continue
            assert s.workload_mode == "fresh"
            assert s.redundancy == "replication"
            dumps = [st for st in s.steps if st.op == "dump"]
            assert dumps[0].kind == "full"
            assert not any(st.op == "gc" for st in s.steps)
            # prune only ever fires with two live epochs of that tenant
            # (no tenant's last dump is ever collected)
            live = [0] * s.tenants
            for st in s.steps:
                if st.op == "dump":
                    live[st.tenant] += 1
                elif st.op == "prune":
                    assert live[st.tenant] >= 2
                    live[st.tenant] -= 1

    def test_generator_draws_multi_tenant_chains(self):
        """The one draw that puts a delta behind admission, beside a second
        tenant and under a crash: at least 40 of seeds 0-1199, some with
        every tenant dumping the same content, some bursty, some with a
        crash in the middle of a delta."""
        drawn = [
            s for s in map(generate_scenario, range(1200))
            if s.chain and s.tenants > 1
        ]
        assert len(drawn) >= 40
        base = {s.seed: s.make_chain_workload(0).seed for s in drawn}
        assert any(
            s.make_chain_workload(1).seed == base[s.seed] for s in drawn
        )
        assert any(
            s.make_chain_workload(1).seed != base[s.seed] for s in drawn
        )
        assert any(s.arrival == "bursty" for s in drawn)
        assert any(
            st.kind == "delta" and st.crash is not None
            for s in drawn for st in s.steps
        )
        for s in drawn:
            assert {st.tenant for st in s.steps} <= set(range(s.tenants))

    def test_non_chain_scenarios_never_use_chain_ops(self):
        for s in map(generate_scenario, range(200)):
            if s.chain:
                continue
            assert all(
                st.op not in ("prune", "compact") for st in s.steps
            )
            assert all(
                st.kind == "full" for st in s.steps if st.op == "dump"
            )


class TestScenarioModel:
    def test_chain_scenario_round_trips_serialization(self):
        s = generate_scenario(DEEP_SEED)
        assert s.chain
        assert Scenario.from_dict(s.as_dict()) == s

    def test_delta_kind_requires_chain(self):
        """A delta needs a chain under it, in any number of tenants; a
        chain scenario's dump may be a delta for any of them."""
        for tenants in (1, 2):
            with pytest.raises(ScenarioError, match="delta dump steps"):
                chain_scenario(chain=False, tenants=tenants, steps=(
                    Step("dump"), Step("dump", kind="delta"),
                ))
        s = chain_scenario(tenants=2, steps=(
            Step("dump", tenant=1), Step("dump", tenant=1, kind="delta"),
        ))
        assert [st.kind for st in s.steps] == ["full", "delta"]

    def test_prune_requires_chain(self):
        with pytest.raises(ScenarioError):
            chain_scenario(
                chain=False,
                steps=(Step("dump"), Step("prune")),
            )

    def test_chain_excludes_multi_tenancy(self):
        """It no longer does: a chain scenario is a service scenario, so
        any step that acts for a tenant may name one, within range."""
        steps = (
            Step("dump", tenant=2), Step("dump", tenant=0),
            Step("dump", tenant=2, kind="delta"), Step("prune", tenant=2),
            Step("compact", tenant=2), Step("gc", tenant=0),
        )
        s = chain_scenario(tenants=3, steps=steps)
        assert Scenario.from_dict(s.as_dict()) == s
        for op in ("dump", "gc", "prune", "compact"):
            with pytest.raises(ScenarioError, match="out of range"):
                chain_scenario(tenants=3, steps=(
                    Step("dump"), Step(op, tenant=3),
                ))
        with pytest.raises(ScenarioError, match="may name a tenant"):
            Step("repair", tenant=1)
        with pytest.raises(ScenarioError, match="multi-tenant"):
            chain_scenario(steps=(Step("dump"), Step("gc")))

    def test_chain_excludes_parity(self):
        with pytest.raises(ScenarioError):
            chain_scenario(redundancy="parity")


class TestExecutor:
    @pytest.mark.parametrize("seed", CHAIN_SEEDS)
    def test_chain_seeds_uphold_all_invariants(self, seed, memo):
        s = generate_scenario(seed)
        assert s.chain
        result = memo.execute(s, backend="thread")
        assert result.ok, [v.as_dict() for v in result.violations]
        for step_doc in result.steps:
            for name in CHAIN_CHECKS:
                assert name in step_doc["invariants_checked"]
            assert "restore" not in step_doc["invariants_checked"]

    def test_hand_built_chain_scenario_is_green_on_both_backends(self):
        s = chain_scenario()
        thread = execute_scenario(s, backend="thread")
        assert thread.ok, [v.as_dict() for v in thread.violations]
        process = execute_scenario(s, backend="process")
        assert process.ok, [v.as_dict() for v in process.violations]
        assert not differential_check(thread, process)

    def test_dump_steps_record_chain_metadata(self):
        result = execute_scenario(chain_scenario(), backend="thread")
        dumps = [d for d in result.steps if d["op"] == "dump"]
        assert dumps[0]["kind"] == "full"
        assert dumps[0]["epoch"] == 0
        deltas = [d for d in dumps if d["kind"] == "delta"]
        assert deltas
        for doc in deltas:
            assert 0 < doc["changed_chunks"] < doc["total_chunks"]
        prunes = [d for d in result.steps if d["op"] == "prune"]
        assert prunes and "epoch" in prunes[0]
        compacts = [d for d in result.steps if d["op"] == "compact"]
        assert compacts and compacts[0]["new_dump_id"] > compacts[0][
            "old_dump_id"
        ]

    def test_deep_differential_seed_reaches_depth_eight(self, memo):
        """The corpus' long-chain seed really does time-travel through a
        depth >= 8 chain on both backends, post-GC and post-compaction:
        ``run_scenario`` honours its differential flag, and the armed
        chain-restore invariant restores every live epoch after every
        step."""
        s = generate_scenario(DEEP_SEED)
        assert s.chain and s.differential
        depth = deepest = 0
        for st in s.steps:
            if st.op == "dump":
                depth = 1 if st.kind == "full" else depth + 1
                deepest = max(deepest, depth)
            elif st.op == "compact":
                depth = min(depth, 1)
        assert deepest >= 8
        assert any(st.op == "compact" for st in s.steps)
        result = memo.run(s)
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_differential_chain_seed_with_gc_is_green(self, memo):
        s = generate_scenario(DIFF_SEED)
        assert s.chain and s.differential
        assert any(st.op == "prune" for st in s.steps)
        assert any(st.op == "compact" for st in s.steps)
        result = memo.run(s)
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_chain_run_is_deterministic(self):
        s = generate_scenario(CHAIN_SEEDS[0])
        a = execute_scenario(s, backend="thread")
        b = execute_scenario(s, backend="thread")
        assert a.verdict() == b.verdict()

    def test_collect_trace_yields_chain_spans(self):
        result = execute_scenario(
            chain_scenario(), backend="thread", collect_trace=True
        )
        assert result.ok
        assert result.traces


class TestHarnessCatchesBugs:
    def test_drop_replica_bug_trips_chain_invariants(self, memo):
        s = generate_scenario(16)  # k=3: replicas to drop
        result = memo.execute(s, backend="thread", bug="drop-replica")
        tripped = {v.invariant for v in result.violations}
        assert "replication" in tripped
        assert "chain-restore" in tripped


class TestShrinker:
    def test_shrinker_simplifies_chain_machinery_away(self, memo):
        """A chain failure that does not depend on the chain machinery
        (an injected replica drop) must shrink to a plain non-chain
        scenario — dropping prune/compact steps, promoting deltas and
        finally clearing the chain flag."""
        s = generate_scenario(16)

        def still_fails(candidate):
            return not memo.execute(
                candidate, backend="thread", bug="drop-replica"
            ).ok

        result = shrink(s, still_fails, max_evaluations=120)
        assert result.accepted > 0
        final = result.scenario
        assert still_fails(final)
        assert not final.chain
        assert final.n_dumps <= s.n_dumps
        assert any(
            "delta" in entry or "chain" in entry for entry in result.trail
        )
