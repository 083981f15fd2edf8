"""Shrinking and mutation testing.

The mutation test is the fuzzer's own acceptance test: a deliberately
injected replication-count bug (one replica of a shared chunk silently
dropped after the dump) must be *caught* by the oracles and *shrunk* to a
minimal scenario — no more than 4 ranks and 2 crash events.
"""

from repro.dst import (
    Scenario,
    Step,
    generate_scenario,
    run_scenario,
    shrink,
)


def failing_predicate(bug, run=run_scenario):
    def still_fails(scenario):
        return not run(scenario, bug=bug).ok
    return still_fails


class TestMutation:
    def test_drop_replica_bug_is_caught(self, memo):
        result = memo.run(generate_scenario(12), bug="drop-replica")
        assert not result.ok
        assert any(v.invariant == "replication" for v in result.violations)

    def test_bug_step_records_what_was_dropped(self, memo):
        result = memo.run(generate_scenario(12), bug="drop-replica")
        dump_steps = [s for s in result.steps if s["op"] == "dump"]
        assert any("bug" in s for s in dump_steps)

    def test_drop_replica_shrinks_to_minimal_scenario(self, memo):
        base = generate_scenario(12)
        out = shrink(base, failing_predicate("drop-replica", memo.run))
        minimal = out.scenario
        assert not memo.run(minimal, bug="drop-replica").ok
        # the acceptance bar from the issue: <= 4 ranks, <= 2 crash events
        assert minimal.n_ranks <= 4
        assert minimal.crash_count <= 2
        # this particular bug needs no crash at all and only two ranks
        assert minimal.n_ranks == 2
        assert minimal.crash_count == 0
        assert minimal.n_dumps == 1

    def test_shrink_is_deterministic(self):
        # two real shrinks over real executions: no memo here
        base = generate_scenario(12)
        a = shrink(base, failing_predicate("drop-replica"))
        b = shrink(base, failing_predicate("drop-replica"))
        assert a.scenario == b.scenario
        assert a.evaluations == b.evaluations


class TestShrinker:
    def test_passing_scenario_shrinks_to_itself(self):
        base = generate_scenario(3)
        out = shrink(base, lambda s: False)
        assert out.scenario == base
        assert out.accepted == 0

    def test_result_of_shrink_still_fails(self, memo):
        base = generate_scenario(12)
        still_fails = failing_predicate("drop-replica", memo.run)
        out = shrink(base, still_fails)
        assert still_fails(out.scenario)

    def test_evaluation_budget_respected(self, memo):
        base = generate_scenario(12)
        out = shrink(
            base, failing_predicate("drop-replica", memo.run),
            max_evaluations=5,
        )
        assert out.evaluations <= 5

    def test_crash_steps_are_dropped_first(self):
        """A predicate that fails regardless of crashes must see every
        crash/repair step removed from the minimized scenario."""
        base = Scenario(
            seed=9,
            n_ranks=4,
            k=2,
            steps=(
                Step("dump"),
                Step("crash", node=1),
                Step("repair"),
                Step("dump"),
            ),
        )
        out = shrink(base, lambda s: True)
        assert out.scenario.crash_count == 0
        assert all(step.op == "dump" for step in out.scenario.steps)

    def test_tenants_go_last_of_all(self):
        """A multi-tenant chain failure that needs none of it shrinks
        through the chain machinery, then chain mode, then the tenants,
        down to the bare cluster."""
        base = Scenario(
            seed=9, n_ranks=3, k=2, tenants=3, chain=True, arrival="bursty",
            steps=(
                Step("dump", tenant=2),
                Step("dump", tenant=2, kind="delta"),
                Step("dump", tenant=1),
                Step("prune", tenant=2),
                Step("gc", tenant=1),
                Step("compact", tenant=2),
            ),
        )
        out = shrink(base, lambda s: True)
        final = out.scenario
        assert (final.tenants, final.chain, final.arrival) == (
            1, False, "steady"
        )
        assert [st.as_dict() for st in final.steps] == [{"op": "dump"}]
        order = [
            out.trail.index(entry) for entry in
            ("disable chain mode", "reduce tenants to 1")
        ]
        assert order == sorted(order)
