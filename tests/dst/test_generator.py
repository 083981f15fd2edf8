"""Seed -> scenario generation: bit-determinism and validity."""

from repro.dst import MidDumpCrash, Scenario, generate_scenario


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        for seed in range(20):
            assert generate_scenario(seed) == generate_scenario(seed)

    def test_same_seed_same_json(self):
        for seed in range(20):
            assert (generate_scenario(seed).to_json()
                    == generate_scenario(seed).to_json())

    def test_different_seeds_differ(self):
        texts = {generate_scenario(seed).to_json() for seed in range(30)}
        assert len(texts) > 20  # near-total diversity over a small window


class TestValidity:
    def test_generated_scenarios_validate(self):
        """Construction runs the full Scenario validation; surviving it for
        a wide seed window means the generator never emits an illegal
        combination (parity+crash, pipelined+mid-dump crash, ...)."""
        for seed in range(200):
            s = generate_scenario(seed)
            assert isinstance(s, Scenario)
            assert s.seed == seed

    def test_crash_budget_respected(self):
        """Crashes between repairs never exceed K_eff - 1, so scenarios
        stay within the paper's survivability envelope by construction."""
        for seed in range(200):
            s = generate_scenario(seed)
            window = 0
            for step in s.steps:
                if step.op == "repair":
                    window = 0
                elif step.op == "crash":
                    window += 1
                elif step.crash is not None:
                    window += 1
                assert window <= s.k_eff - 1 or s.k_eff == 1

    def test_feature_matrix_reachable(self):
        """Every interesting feature shows up somewhere in a 200-seed
        window — the generator does not silently stop exploring a mode."""
        seen = set()
        for seed in range(200):
            s = generate_scenario(seed)
            if s.redundancy == "parity":
                seen.add("parity")
            if s.workload_mode == "repeat":
                seen.add("repeat")
            if s.differential:
                seen.add("differential")
            if s.compress:
                seen.add("compress")
            if any(st.op == "crash" for st in s.steps):
                seen.add("crash")
            if any(isinstance(st.crash, MidDumpCrash) for st in s.steps):
                seen.add("mid-dump")
            if any(st.op == "repair" for st in s.steps):
                seen.add("repair")
            if s.strategy != "coll-dedup":
                seen.add("baseline-strategy")
            if s.pipelined:
                seen.add("pipelined")
            if s.integrity == "fast":
                seen.add("fast-integrity")
            if s.pipelined and s.integrity == "fast":
                seen.add("pipelined-fast")
            if s.tenants > 1:
                seen.add("multi-tenant")
            if s.tenants > 1 and any(st.op == "gc" for st in s.steps):
                seen.add("tenant-gc")
            if s.shard_count > 1:
                seen.add("sharded")
        assert seen == {
            "parity", "repeat", "differential", "compress",
            "crash", "mid-dump", "repair", "baseline-strategy",
            "pipelined", "fast-integrity", "pipelined-fast",
            "multi-tenant", "tenant-gc", "sharded",
        }

    def test_tenant_gc_steps_always_have_a_live_dump(self):
        """A generated ``gc`` step always follows an earlier dump by the
        same tenant that no previous gc already collected — the executor
        never hits the noop path on generated scenarios."""
        for seed in range(200):
            s = generate_scenario(seed)
            if s.tenants <= 1:
                assert all(st.op != "gc" for st in s.steps)
                continue
            live = {t: 0 for t in range(s.tenants)}
            for st in s.steps:
                if st.op == "dump":
                    live[st.tenant] += 1
                elif st.op == "gc":
                    assert live[st.tenant] > 0
                    live[st.tenant] -= 1

    def test_pipelined_scenarios_always_engage(self):
        """The generator only sets ``pipelined=True`` where every dump
        actually takes the pipelined path (replication, no dead node in any
        liveness snapshot) — the knob is never decorative."""
        for seed in range(200):
            s = generate_scenario(seed)
            if s.pipelined:
                assert s.crash_count == 0
                assert s.redundancy == "replication"
