"""Experiment runners: the harness the benchmarks stand on."""

import pytest

from repro.analysis.experiments import (
    WorkloadRunner,
    cm1_runner,
    fig2_example,
    hpccg_runner,
)
from repro.core import Strategy


class TestFig2Example:
    def test_reproduces_paper_numbers(self):
        out = fig2_example(k=3)
        assert out["naive_max_receive"] == 200
        assert out["shuffled_max_receive"] == 110

    def test_shuffle_is_permutation(self):
        out = fig2_example(k=3)
        assert sorted(out["shuffle"]) == list(range(6))


class TestWorkloadRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return hpccg_runner(nx=8)

    def test_run_produces_complete_record(self, runner):
        run = runner.run(8, Strategy.COLL_DEDUP, k=3)
        assert run.workload == "HPCCG"
        assert run.n_ranks == 8
        assert run.k == 3
        assert run.completion_s > run.increase_s > 0
        assert run.metrics.world_size == 8
        assert run.breakdown.total > 0
        assert run.volume_scale > 1  # scaled-down working set

    def test_index_cache_reused(self, runner):
        first = runner.indices(8)
        second = runner.indices(8)
        assert first is second

    def test_run_strategies_covers_all(self, runner):
        runs = runner.run_strategies(8, k=2)
        assert set(runs) == set(Strategy)

    def test_strategy_ordering_holds(self, runner):
        runs = runner.run_strategies(8, k=3)
        assert (
            runs[Strategy.COLL_DEDUP].completion_s
            <= runs[Strategy.LOCAL_DEDUP].completion_s
            <= runs[Strategy.NO_DEDUP].completion_s
        )

    def test_cm1_runner_constructs(self):
        runner = cm1_runner(nx=8, nz=4)
        run = runner.run(4, Strategy.COLL_DEDUP)
        assert run.workload == "CM1"
        assert run.completion_s > 0

    def test_increase_is_checkpoints_times_dump(self):
        runner = cm1_runner(nx=8, nz=4)
        run = runner.run(4, Strategy.LOCAL_DEDUP)
        assert run.increase_s == pytest.approx(2 * run.breakdown.total)


class TestRunnerExtensions:
    def test_dedup_domain_parameter(self):
        runner = hpccg_runner(nx=8)
        global_run = runner.run(8, Strategy.COLL_DEDUP, k=3)
        domain_run = runner.run(8, Strategy.COLL_DEDUP, k=3, dedup_domain_size=2)
        assert sum(domain_run.metrics.per_rank_sent) >= sum(
            global_run.metrics.per_rank_sent
        )

    def test_node_aware_parameter(self):
        """The runner places rank-granular, like the paper; the machine map
        only counts node-distinct replicas.  Placing against that map does
        no worse."""
        from repro.netsim.machine import MachineProfile
        from repro.sim import compute_metrics, simulate_dump

        machine = MachineProfile.shamrock().with_(placement="block")
        runner = hpccg_runner(nx=8, machine=machine)
        plain = runner.run(24, Strategy.COLL_DEDUP, k=3)
        rank_to_node = machine.rank_to_node(24)
        indices = runner.indices(24)
        config = plain.result.config
        assert (
            plain.result.placement.shuffle
            == simulate_dump(indices, config).placement.shuffle
        )
        placed = simulate_dump(indices, config, rank_to_node=rank_to_node)
        aware = compute_metrics(indices, placed, rank_to_node=rank_to_node)
        assert aware.node_replication_min >= plain.metrics.node_replication_min
