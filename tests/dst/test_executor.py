"""Scenario execution: determinism, the replica ledger, verdicts."""

import hashlib
import json

import pytest

from repro.dst import (
    MidDumpCrash,
    ReplicaLedger,
    Scenario,
    ScenarioError,
    Step,
    VERDICT_SCHEMA_ID,
    WorkloadSpec,
    execute_scenario,
    executor,
    generate_scenario,
    run_scenario,
    shrink,
)
from repro.dst.executor import ServiceSystem, cluster_digest
from repro.dst.scenario import STEP_OPS
from repro.storage.manifest import Manifest


def small_scenario(**changes):
    base = Scenario(seed=5, n_ranks=3, k=2, chunks_per_rank=3)
    return base.with_(**changes) if changes else base


class TestDeterminism:
    def test_same_seed_identical_verdicts(self):
        """The acceptance bar: two runs of the same seed are bit-identical
        down to the serialized verdict document."""
        for seed in (0, 5, 12):
            a = run_scenario(generate_scenario(seed))
            b = run_scenario(generate_scenario(seed))
            assert a.verdict_json() == b.verdict_json()
            assert a.cluster_digest == b.cluster_digest
            assert a.reports_digest == b.reports_digest

    def test_verdict_is_serializable_and_tagged(self):
        result = run_scenario(small_scenario())
        doc = json.loads(result.verdict_json())
        assert doc["schema"] == VERDICT_SCHEMA_ID
        assert doc["ok"] is True
        assert doc["seed"] == 5

    def test_digest_reflects_cluster_content(self):
        r1 = run_scenario(small_scenario())
        r2 = run_scenario(small_scenario(chunks_per_rank=4))
        assert r1.cluster_digest != r2.cluster_digest


class TestExecution:
    def test_healthy_dump_upholds_invariants(self):
        result = run_scenario(small_scenario())
        assert result.ok, result.violations
        assert [s["op"] for s in result.steps] == ["dump"]

    def test_crash_and_repair_loop(self):
        s = small_scenario(
            n_ranks=4,
            k=3,
            steps=(
                Step("dump"),
                Step("crash", node=1),
                Step("dump"),
                Step("repair"),
                Step("dump"),
            ),
        )
        result = run_scenario(s)
        assert result.ok, result.violations
        assert [step["op"] for step in result.steps] == [
            "dump", "crash", "dump", "repair", "dump",
        ]

    def test_repeated_crash_of_dead_node_is_noop(self):
        s = small_scenario(
            n_ranks=4,
            k=2,
            steps=(
                Step("dump"),
                Step("crash", node=2),
                Step("crash", node=2),
                Step("dump"),
            ),
        )
        result = run_scenario(s)
        assert result.ok, result.violations
        crash_steps = [st for st in result.steps if st["op"] == "crash"]
        assert crash_steps[0]["noop"] is False
        assert crash_steps[1]["noop"] is True

    def test_repeat_mode_dumps_fulls_and_still_catches_a_dropped_replica(
        self,
    ):
        """Repeat mode is fulls of identical content, not deltas with no
        dirty chunk: a zero-chunk delta sets no new floor, so the
        path-minimum floor would stay at the first dump's post-crash level
        and hide the dropped replica on this seed."""
        scenario = generate_scenario(58)
        assert scenario.workload_mode == "repeat" and scenario.n_dumps == 2
        result = execute_scenario(scenario)
        assert result.ok, result.violations
        dumps = [st for st in result.steps if st["op"] == "dump"]
        assert [st["kind"] for st in dumps] == ["full", "full"]
        assert all(st["changed_chunks"] == st["total_chunks"] for st in dumps)
        caught = execute_scenario(scenario, bug="drop-replica")
        assert {v.invariant for v in caught.violations} >= {"replication"}

    def test_parity_full_restores_as_a_chain_epoch(self):
        result = execute_scenario(small_scenario(
            redundancy="parity", steps=(Step("dump"), Step("dump")),
        ))
        assert result.ok, result.violations
        for step in result.steps:
            assert step["kind"] == "full"
            checked = step["invariants_checked"]
            assert {"parity-margin", "chain-restore"} <= set(checked)
            assert not {"replication", "audit-consistency"} & set(checked)

    def test_backend_override(self):
        s = small_scenario()
        thread = execute_scenario(s, backend="thread")
        process = execute_scenario(s, backend="process")
        assert thread.ok and process.ok
        assert thread.cluster_digest == process.cluster_digest


class TestReplicaLedger:
    def test_dump_sets_floor_to_k_eff(self):
        ledger = ReplicaLedger(k_eff=3)
        ledger.record_dump(0, [True, True, True, True])
        assert all(ledger.floors[(0, r)] == 3 for r in range(4))

    def test_death_costs_one_replica_everywhere(self):
        ledger = ReplicaLedger(k_eff=3)
        ledger.record_dump(0, [True] * 4)
        ledger.record_death()
        assert all(ledger.floors[(0, r)] == 2 for r in range(4))

    def test_floor_never_goes_negative(self):
        ledger = ReplicaLedger(k_eff=1)
        ledger.record_dump(0, [True, True])
        ledger.record_death()
        ledger.record_death()
        assert all(f == 0 for f in ledger.floors.values())

    def test_dead_rank_dump_gets_reduced_floor(self):
        ledger = ReplicaLedger(k_eff=3)
        ledger.record_dump(0, [True, False, True, True])
        assert ledger.floors[(0, 0)] == 3
        assert ledger.floors[(0, 1)] == 2  # its own store is gone


class TestMultiTenantExecution:
    def make_scenario(self, **changes):
        base = Scenario(
            seed=9, n_ranks=3, k=2, chunks_per_rank=4,
            tenants=2, tenant_overlap=0.5, shard_count=2,
            steps=(
                Step("dump", tenant=0),
                Step("dump", tenant=1),
                Step("gc", tenant=0),
                Step("dump", tenant=0),
            ),
        )
        return base.with_(**changes) if changes else base

    def test_svc_path_runs_the_service_oracles(self):
        result = execute_scenario(self.make_scenario())
        assert result.ok, [v.as_dict() for v in result.violations]
        dump_steps = [s for s in result.steps if s["op"] == "dump"]
        assert [s["tenant"] for s in dump_steps] == ["t0", "t1", "t0"]
        for step in result.steps:
            assert "tenant-isolation" in step["invariants_checked"]
            assert "cross-tenant-accounting" in step["invariants_checked"]

    def test_gc_step_reports_cross_tenant_retention(self):
        # overlap=1.0 makes every dump the common base state, so t1's
        # earlier dump pins every chunk t0's GC walks.
        result = execute_scenario(self.make_scenario(tenant_overlap=1.0))
        (gc_step,) = [s for s in result.steps if s["op"] == "gc"]
        assert gc_step["tenant"] == "t0"
        # overlap keeps t1's shared chunks alive through t0's GC.
        assert gc_step["chunks_retained"] > 0
        assert gc_step["retained_cross_tenant"] > 0

    def test_svc_path_is_deterministic(self):
        scenario = self.make_scenario()
        a = execute_scenario(scenario)
        b = execute_scenario(scenario)
        assert a.verdict_json() == b.verdict_json()

    def test_svc_path_matches_across_backends(self):
        scenario = self.make_scenario(differential=True)
        result = run_scenario(scenario)
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_degraded_full_that_loses_a_rank_is_an_accepted_loss(self):
        """What seed 558 drew before the multi-tenant chain draw took it
        (1090 in the corpus is the same class): node 1 dies in the first
        dump and is never repaired back, so rank 1 keeps one replica, on
        node 2, and node 2 dies in the second dump.  The ledger's floor of
        that ``(dump, rank)`` is 0; the dump must commit, not raise."""
        steps = (
            Step("dump", crash=MidDumpCrash(1, "write")),
            Step("gc"), Step("repair"),
            Step("dump", crash=MidDumpCrash(2, "write")),
            Step("gc"), Step("repair"), Step("dump", tenant=1),
            Step("repair"),
        )
        scenario = Scenario(
            seed=558, n_ranks=4, k=2, chunk_size=128, chunks_per_rank=2,
            f_threshold=4, shuffle=False, compress="zlib-1",
            tenants=2, tenant_overlap=0.25, shard_count=8, steps=steps,
            workload=WorkloadSpec(0.0, 0.2, 0.0, 2),
        )
        result = execute_scenario(scenario)
        assert result.ok, [v.as_dict() for v in result.violations]
        assert [st["op"] for st in result.steps] == [st.op for st in steps]

    def test_bug_injection_still_caught_with_tenants(self):
        result = execute_scenario(self.make_scenario(), bug="drop-replica")
        assert not result.ok
        assert any(
            v.invariant == "replication" for v in result.violations
        )


class TestClusterDigest:
    def test_digest_changes_with_mutation(self):
        from repro.storage.local_store import Cluster

        cluster = Cluster(2)
        before = cluster_digest(cluster)
        cluster.nodes[0].chunks.put(b"\x07" * 20, b"payload")
        assert cluster_digest(cluster) != before

    def test_digest_sees_liveness(self):
        from repro.storage.local_store import Cluster

        cluster = Cluster(2)
        before = cluster_digest(cluster)
        cluster.nodes[1].alive = False
        assert cluster_digest(cluster) != before


class TestBurstyArrival:
    def make_scenario(self, **changes):
        base = Scenario(
            seed=13, n_ranks=3, k=2, chunks_per_rank=4,
            tenants=2, tenant_overlap=0.5, shard_count=2,
            arrival="bursty",
            steps=(
                Step("dump", tenant=0),
                Step("dump", tenant=1),
                Step("dump", tenant=0),
                Step("tick"),
                Step("tick"),
                Step("dump", tenant=1),
            ),
        )
        return base.with_(**changes) if changes else base

    def test_bursty_run_upholds_invariants(self):
        result = execute_scenario(self.make_scenario())
        assert result.ok, [v.as_dict() for v in result.violations]
        assert result.slo is not None
        assert "slo-determinism" in result.steps[-1]["invariants_checked"]

    def test_burst_accumulates_queue_wait(self):
        result = execute_scenario(self.make_scenario())
        dump_steps = [s for s in result.steps if s["op"] == "dump"]
        # The whole run is submitted up front, so later dumps in the
        # burst waited in the admission queue.
        assert max(s["wait_ticks"] for s in dump_steps) > 0
        # All four dumps executed exactly once despite batch submission.
        assert len(dump_steps) == 4

    def test_tick_steps_advance_the_clock(self):
        result = execute_scenario(self.make_scenario())
        tick_steps = [s for s in result.steps if s["op"] == "tick"]
        assert len(tick_steps) == 2
        assert tick_steps[1]["tick"] > tick_steps[0]["tick"]

    def test_bursty_is_deterministic(self):
        scenario = self.make_scenario()
        a = execute_scenario(scenario)
        b = execute_scenario(scenario)
        assert a.verdict_json() == b.verdict_json()

    def test_bursty_matches_across_backends(self):
        result = run_scenario(self.make_scenario(differential=True))
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_verdict_carries_the_slo_document(self):
        result = execute_scenario(self.make_scenario())
        doc = json.loads(result.verdict_json())
        assert doc["slo"]["schema"] == "repro.obs/slo/v1"
        assert doc["slo"]["ticks"] > 0

    def test_steady_multi_tenant_still_has_slo_verdict(self):
        result = execute_scenario(
            self.make_scenario(
                arrival="steady",
                steps=(
                    Step("dump", tenant=0),
                    Step("dump", tenant=1),
                ),
            )
        )
        assert result.ok
        assert result.slo is not None
        assert result.slo["ok"] is True


def fake_system(forget_dump=None, raise_dump=None):
    """An in-memory system for driving the real step loop without any
    collective: a dump writes one chunk and one manifest per rank straight
    onto ``k_eff`` nodes.  ``forget_dump`` drops one replica of rank 0's
    chunk at that dump id; ``raise_dump`` makes that dump raise."""

    class FakeSystem(ServiceSystem):
        built = []
        next_dump_id = 0

        def __init__(self, *args):
            super().__init__(*args)
            self.built.append(self)

        def battery(self):
            # Its chunks are in no chain: there is no reference to recount.
            return [
                check for check in super().battery()
                if check[0] != "chain-refcounts"
            ]

        def dump(self, step, step_idx, step_doc, arm_crash):
            dump_id = self.next_dump_id
            if dump_id == raise_dump:
                raise RuntimeError("fake dump failed\nwith a second line")
            for rank in range(self.n):
                payload = b"dump %d rank %d" % (dump_id, rank)
                fp = hashlib.sha1(payload).digest()
                manifest = Manifest(
                    rank, dump_id, [len(payload)], [fp],
                    chunk_size=len(payload),
                )
                holders = [
                    (rank + i) % self.n for i in range(self.scenario.k_eff)
                ]
                for node_id in holders:
                    self.cluster.nodes[node_id].put_manifest(manifest)
                if dump_id == forget_dump and rank == 0:
                    holders.pop()
                for node_id in holders:
                    self.cluster.nodes[node_id].chunks.put(fp, payload)
            self.next_dump_id += 1
            return dump_id, [], None

    return FakeSystem


class TestStepLoopOverAFakeSystem:
    """The loop's own behaviour, pinned without a collective: the system
    is substituted at the one place the loop builds it."""

    def run(self, monkeypatch, system, steps, **changes):
        monkeypatch.setattr(executor, "ServiceSystem", system)
        scenario = small_scenario(
            n_ranks=4, k=2, steps=steps, **changes
        )
        return scenario, execute_scenario(scenario)

    def test_second_crash_leaves_the_floors_alone(self, monkeypatch):
        system = fake_system()
        _s, result = self.run(monkeypatch, system, (
            Step("dump"), Step("crash", node=2), Step("crash", node=2),
        ))
        assert result.ok, result.violations
        assert [st.get("noop") for st in result.steps] == [None, False, True]
        (built,) = system.built
        assert set(built.ledger.floors.values()) == {1}
        assert not built.cluster.nodes[2].alive

    def test_forgotten_replica_is_caught_at_that_step(self, monkeypatch):
        _s, result = self.run(
            monkeypatch, fake_system(forget_dump=1),
            (Step("dump"), Step("dump"), Step("dump")),
        )
        assert not result.ok
        assert {(v.invariant, v.step) for v in result.violations} == {
            ("replication", 1), ("replication", 2),
        }
        assert result.steps[0]["violations_so_far"] == 0
        assert result.steps[1]["violations_so_far"] == 1

    def test_raising_dump_is_one_step_error_and_the_run_stops(
        self, monkeypatch
    ):
        scenario, result = self.run(
            monkeypatch, fake_system(raise_dump=1),
            (Step("dump"), Step("crash", node=1), Step("dump"),
             Step("dump")),
        )
        assert not result.ok
        (violation,) = result.violations
        assert violation.as_dict() == {
            "invariant": "step-error", "step": 2,
            "detail": "dump raised RuntimeError: fake dump failed",
        }
        assert [st["op"] for st in result.steps] == ["dump", "crash", "dump"]
        assert result.steps[-1]["error"] == "RuntimeError"
        assert result.steps[-1]["invariants_checked"] == []
        assert result.cluster_digest and result.reports_digest
        json.loads(result.verdict_json())
        # ... and the failure is an ordinary one to the shrinker
        out = shrink(scenario, lambda s: not execute_scenario(s).ok)
        assert out.accepted > 0
        assert [st.op for st in out.scenario.steps] == ["dump", "dump"]
        assert out.scenario.n_ranks == 2

    def test_raising_check_is_a_step_error_too(self, monkeypatch):
        def lost(step_idx):
            raise KeyError("lost")

        class BrokenCheck(fake_system()):
            def battery(self):
                return super().battery()[:2] + [("lost", lost)]

        _s, result = self.run(monkeypatch, BrokenCheck, (Step("dump"),))
        (violation,) = result.violations
        assert violation.invariant == "step-error"
        assert violation.detail == "dump raised KeyError: 'lost'"
        assert result.steps[0]["invariants_checked"] == [
            "window-layout", "report-sanity",
            "replication", "audit-consistency", "lost",
        ]


#: the Scenario modes the system runs
SYSTEM_MODES = {
    ServiceSystem: (
        dict(), dict(redundancy="parity"),
        dict(tenants=2, shard_count=2), dict(chain=True),
        dict(chain=True, tenants=3),
    ),
}


class TestStepKindsPerSystem:
    @staticmethod
    def schedule(op):
        step = Step("crash", node=1) if op == "crash" else Step(op)
        return (Step("dump"), step)

    @pytest.mark.parametrize("system", SYSTEM_MODES, ids=lambda s: s.__name__)
    def test_loop_accepts_exactly_what_the_scenario_admits(self, system):
        """The step kinds the loop plus the system's ``ops`` table accept
        are exactly those ``Scenario.__post_init__`` admits for that mode
        — and a rejected kind is a ``ScenarioError``, never a
        ``KeyError``."""
        for mode in SYSTEM_MODES[system]:
            # Parity refuses crash steps: for the config, not the kind, so
            # the loop cannot refuse them too.
            parity = mode.get("redundancy") == "parity"
            base = small_scenario(**mode)
            for op in STEP_OPS + ("frobnicate",):
                try:
                    scenario = base.with_(steps=self.schedule(op))
                except ScenarioError:
                    if parity and op == "crash":
                        continue
                    # Smuggle the step past validation: the loop must
                    # refuse it the same way, before running anything.
                    step = Step("tick")
                    object.__setattr__(step, "op", op)
                    scenario = base.with_()
                    object.__setattr__(
                        scenario, "steps", (Step("dump"), step)
                    )
                    with pytest.raises(ScenarioError):
                        execute_scenario(scenario)
                else:
                    result = execute_scenario(scenario)
                    assert result.ok, (mode, op, result.violations)
                    assert [st["op"] for st in result.steps] == ["dump", op]

    def test_prune_and_gc_are_one_handler(self):
        """A chain is collected one way: ``prune`` and ``gc`` differ only
        in that ``prune`` never takes a tenant's last live dump."""
        scenario = small_scenario(
            chain=True, tenants=2,
            steps=(Step("dump"), Step("prune"), Step("gc"), Step("gc")),
        )
        built = []

        class Spy(ServiceSystem):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        result = execute_scenario_on(Spy, scenario)
        (system,) = built
        assert system.ops["prune"] == system.ops["gc"]
        assert [st.get("noop") for st in result.steps] == [
            None, True, None, True,
        ]
        assert result.steps[2]["epoch"] == 0
        assert result.ok, result.violations


def execute_scenario_on(system, scenario):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "ServiceSystem", system)
        return execute_scenario(scenario)


class TestDriverTrace:
    def test_service_scenario_has_the_driver_pseudo_rank(self):
        scenario = small_scenario(
            n_ranks=4, k=2, tenants=2, shard_count=2,
            steps=(
                Step("dump", tenant=0), Step("crash", node=1),
                Step("repair"), Step("dump", tenant=1),
            ),
        )
        result = execute_scenario(scenario, collect_trace=True)
        assert result.ok, result.violations
        by_rank = {trace.rank: trace for trace in result.traces}
        driver = by_rank[scenario.n_ranks]
        names = [span.name for span in driver.spans]
        assert names == ["dump-step", "crash", "repair", "dump-step"]
        repair = driver.spans[names.index("repair")]
        assert set(repair.attrs) >= {"chunks_moved", "manifests_moved"}
        # the service's own trace is still there, beside the driver's
        assert any(s.name == "svc-repair" for s in by_rank[0].spans)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_every_rank_keeps_its_dump_spans(self, backend):
        """The collective's per-rank traces ride the service outcome."""
        scenario = small_scenario(
            n_ranks=3, tenants=2, steps=(
                Step("dump", tenant=0), Step("dump", tenant=1),
            ),
        )
        result = execute_scenario(
            scenario, backend=backend, collect_trace=True
        )
        assert result.ok, result.violations
        by_rank = {trace.rank: trace for trace in result.traces}
        for rank in range(scenario.n_ranks):
            names = [span.name for span in by_rank[rank].spans]
            assert names.count("dump") == 2, (rank, names)
            assert {"hash", "exchange", "write"} <= set(names)
