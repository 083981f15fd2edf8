"""Scenario values: validation, canonical JSON, round-trips."""

import pytest

from repro.dst import (
    MidDumpCrash,
    SCENARIO_SCHEMA_ID,
    Scenario,
    ScenarioError,
    Step,
    WorkloadSpec,
    load_scenario,
    save_scenario,
)


def scenario(**changes):
    base = Scenario(
        seed=1,
        steps=(Step("dump"), Step("crash", node=1), Step("repair")),
    )
    return base.with_(**changes) if changes else base


class TestValidation:
    def test_valid_scenario_builds(self):
        s = scenario()
        assert s.n_dumps == 1
        assert s.crash_count == 1
        assert s.k_eff == min(s.k, s.n_ranks)

    def test_integrity_picks_the_hash(self):
        assert scenario().dump_config().hash_name == "sha1"
        assert scenario(integrity="fast").dump_config().hash_name == "xx128"

    def test_needs_at_least_one_dump(self):
        with pytest.raises(ScenarioError):
            scenario(steps=(Step("crash", node=0),))

    def test_crash_node_must_be_in_range(self):
        with pytest.raises(ScenarioError):
            scenario(steps=(Step("dump"), Step("crash", node=99)))

    def test_parity_rejects_crashes(self):
        with pytest.raises(ScenarioError):
            scenario(redundancy="parity")

    def test_pipelined_rejects_mid_dump_crashes(self):
        scenario(pipelined=True)  # a between-dump crash falls back to strict
        with pytest.raises(ScenarioError):
            scenario(pipelined=True, steps=(
                Step("dump", crash=MidDumpCrash(node=1, phase="write")),
            ))

    def test_mid_dump_crash_phase_checked(self):
        with pytest.raises(ScenarioError):
            scenario(steps=(
                Step("dump", crash=MidDumpCrash(node=1, phase="allgather")),
            ))

    def test_tiny_worlds_rejected(self):
        with pytest.raises(ScenarioError):
            scenario(n_ranks=1)

    def test_bad_op_rejected(self):
        with pytest.raises(ScenarioError):
            scenario(steps=(Step("dump"), Step("explode")))

    def test_multi_tenant_fields_validated(self):
        ok = scenario(
            tenants=2,
            steps=(Step("dump", tenant=0), Step("dump", tenant=1),
                   Step("gc", tenant=1)),
        )
        assert ok.tenants == 2
        with pytest.raises(ScenarioError):
            scenario(tenants=0)
        with pytest.raises(ScenarioError):
            scenario(shard_count=0)
        with pytest.raises(ScenarioError):
            scenario(tenants=2, tenant_overlap=1.5)
        # A dump step may not name a tenant outside the tenant count.
        with pytest.raises(ScenarioError):
            scenario(tenants=2, steps=(Step("dump", tenant=5),))

    def test_gc_requires_multi_tenancy(self):
        with pytest.raises(ScenarioError):
            scenario(steps=(Step("dump"), Step("gc")))

    def test_multi_tenancy_excludes_repeat_mode(self):
        with pytest.raises(ScenarioError):
            scenario(
                tenants=2, workload_mode="repeat",
                steps=(Step("dump", tenant=0),),
            )

    def test_tenant_workloads_share_only_shared_dumps(self):
        s = scenario(
            tenants=2, tenant_overlap=1.0,
            steps=(Step("dump", tenant=0), Step("dump", tenant=1)),
        )
        a = s.make_workload(0, tenant=0).build_dataset(0, s.n_ranks)
        b = s.make_workload(0, tenant=1).build_dataset(0, s.n_ranks)
        assert a.to_bytes() == b.to_bytes()  # shared dump: same base state
        none_shared = s.with_(tenant_overlap=0.0)
        a = none_shared.make_workload(0, tenant=0).build_dataset(0, 3)
        b = none_shared.make_workload(0, tenant=1).build_dataset(0, 3)
        assert a.to_bytes() != b.to_bytes()


class TestSerialization:
    def test_json_round_trip(self):
        s = scenario(
            compress="zlib-1",
            workload=WorkloadSpec(frac_global=0.5),
            steps=(
                Step("dump", crash=MidDumpCrash(node=2, phase="write")),
                Step("repair"),
            ),
        )
        assert Scenario.from_json(s.to_json()) == s

    def test_json_is_canonical(self):
        s = scenario()
        text = s.to_json()
        assert text == Scenario.from_json(text).to_json()
        assert f'"schema": "{SCENARIO_SCHEMA_ID}"' in text
        assert text.endswith("\n")

    def test_retired_keys_in_old_failure_files_are_ignored(self):
        s = scenario()
        doc = dict(s.as_dict(), batched=False, batched_restore=False)
        assert Scenario.from_dict(doc) == s

    def test_schema_id_checked(self):
        doc = '{"schema": "something/else/v9", "seed": 1}'
        with pytest.raises(ScenarioError):
            Scenario.from_json(doc)

    def test_file_round_trip(self, tmp_path):
        s = scenario()
        path = str(tmp_path / "s.json")
        save_scenario(path, s)
        assert load_scenario(path) == s

    def test_with_replaces_and_revalidates(self):
        s = scenario()
        assert s.with_(k=5).k == 5
        with pytest.raises(ScenarioError):
            s.with_(n_ranks=0)


class TestArrival:
    def multi(self, **changes):
        base = scenario(
            steps=(
                Step("dump", tenant=0),
                Step("tick"),
                Step("dump", tenant=1),
            ),
            tenants=2,
            tenant_overlap=0.5,
            workload_mode="fresh",
            arrival="bursty",
        )
        return base.with_(**changes) if changes else base

    def test_bursty_multi_tenant_builds(self):
        s = self.multi()
        assert s.arrival == "bursty"

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ScenarioError, match="arrival"):
            self.multi(arrival="poisson")

    def test_bursty_requires_multi_tenancy(self):
        with pytest.raises(ScenarioError, match="multi-tenant"):
            scenario(arrival="bursty")

    def test_arrival_round_trips_through_json(self):
        s = self.multi()
        assert Scenario.from_json(s.to_json()) == s

    def test_arrival_defaults_to_steady_for_old_documents(self):
        doc = scenario().as_dict()
        doc.pop("arrival")
        assert Scenario.from_dict(doc).arrival == "steady"
