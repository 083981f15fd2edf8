"""Checkpoint-interval theory: Young/Daly formulas and the failure-injected
timeline simulator that validates them."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.interval import (
    daly_interval,
    expected_waste,
    simulate_run,
    young_interval,
)


class TestFormulas:
    def test_young_formula(self):
        assert young_interval(10.0, 20_000.0) == pytest.approx(632.455, rel=1e-4)

    def test_daly_reduces_to_young_for_small_delta(self):
        y = young_interval(1.0, 1e7)
        d = daly_interval(1.0, 1e7)
        assert d == pytest.approx(y, rel=0.01)

    def test_daly_degenerate_regime(self):
        assert daly_interval(100.0, 40.0) == 40.0

    @pytest.mark.parametrize("bad", [(0, 100), (10, 0), (-1, 100)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            young_interval(*bad)

    @given(st.floats(0.1, 1e3), st.floats(1e3, 1e7))
    @settings(max_examples=30)
    def test_cheaper_checkpoints_shorten_the_interval(self, delta, mtbf):
        """The compounding benefit of the paper's cheaper dumps."""
        assert young_interval(delta / 4.0, mtbf) == pytest.approx(
            young_interval(delta, mtbf) / 2.0
        )


class TestExpectedWaste:
    def test_young_interval_near_optimal(self):
        delta, mtbf = 30.0, 50_000.0
        tau_star = young_interval(delta, mtbf)
        best = expected_waste(tau_star, delta, mtbf)
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert expected_waste(tau_star * factor, delta, mtbf) >= best * 0.999

    def test_waste_positive(self):
        assert expected_waste(600, 30, 50_000) > 0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            expected_waste(0, 1, 100)


class TestSimulatedRun:
    def test_no_failures_counts_checkpoints_exactly(self):
        run = simulate_run(
            work_seconds=1000, interval_seconds=100, checkpoint_seconds=5,
            mtbf_seconds=1e12, seed=1,
        )
        assert run.failures == 0
        # 10 segments; the final one completes the job without a checkpoint.
        assert run.checkpoints == 9
        assert run.total_time == pytest.approx(1000 + 9 * 5)
        assert run.overhead_fraction == pytest.approx(0.045)

    def test_failures_cause_rework(self):
        run = simulate_run(
            work_seconds=5000, interval_seconds=200, checkpoint_seconds=10,
            mtbf_seconds=600, restart_seconds=30, seed=7,
        )
        assert run.failures > 0
        assert run.rework_time > 0
        assert run.total_time > 5000

    def test_deterministic_per_seed(self):
        kwargs = dict(work_seconds=3000, interval_seconds=150,
                      checkpoint_seconds=10, mtbf_seconds=500, seed=42)
        assert simulate_run(**kwargs) == simulate_run(**kwargs)

    def test_seed_changes_outcome(self):
        kwargs = dict(work_seconds=3000, interval_seconds=150,
                      checkpoint_seconds=10, mtbf_seconds=400)
        a = simulate_run(seed=1, **kwargs)
        b = simulate_run(seed=2, **kwargs)
        assert a.total_time != b.total_time

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_run(0, 10, 1, 100)
        with pytest.raises(ValueError):
            simulate_run(10, 0, 1, 100)

    def test_analytic_interval_beats_extremes_empirically(self):
        """Averaged over seeds, Young's interval outperforms checkpointing
        8x too often and 8x too rarely."""
        delta, mtbf, work = 20.0, 2_000.0, 30_000.0
        tau = young_interval(delta, mtbf)

        def mean_overhead(interval):
            runs = [
                simulate_run(work, interval, delta, mtbf, restart_seconds=10,
                             seed=s)
                for s in range(25)
            ]
            return sum(r.total_time for r in runs) / len(runs)

        at_star = mean_overhead(tau)
        assert at_star < mean_overhead(tau / 8)
        assert at_star < mean_overhead(tau * 8)

    def test_simulation_tracks_analytic_waste(self):
        """Monte-Carlo overhead lands near the first-order formula."""
        delta, mtbf, work = 10.0, 3_000.0, 100_000.0
        tau = young_interval(delta, mtbf)
        runs = [
            simulate_run(work, tau, delta, mtbf, seed=s) for s in range(30)
        ]
        measured = sum(r.overhead_fraction for r in runs) / len(runs)
        analytic = expected_waste(tau, delta, mtbf)
        assert measured == pytest.approx(analytic, rel=0.5)
