"""X9 — The compounding benefit: cheaper dumps → shorter optimal intervals
→ less expected lost work.

Takes each strategy's modelled dump cost at HPCCG-408, plugs it into
Young's formula with a realistic system MTBF, and compares the expected
checkpointing overhead — the downstream quantity the paper's speedups
actually buy.  A failure-injected Monte-Carlo run cross-checks the
analytic numbers.
"""

import pytest

from repro.analysis.tables import format_table
from repro.core import Strategy
from repro.netsim.interval import expected_waste, simulate_run, young_interval

N = 408
K = 3
MTBF = 24 * 3600.0  # one system failure/day at 34 nodes (2015-era rates)
RESTART = 120.0


def study(runner):
    out = {}
    for strategy in Strategy:
        delta = runner.run(N, strategy, k=K).breakdown.total
        tau = young_interval(delta, MTBF)
        waste = expected_waste(tau, delta, MTBF, restart_seconds=RESTART)
        sim = simulate_run(
            work_seconds=7 * 24 * 3600.0,  # a week-long job
            interval_seconds=tau,
            checkpoint_seconds=delta,
            mtbf_seconds=MTBF,
            restart_seconds=RESTART,
            seed=3,
        )
        out[strategy] = (delta, tau, waste, sim.overhead_fraction)
    return out


def test_ext_optimal_interval(benchmark, hpccg):
    results = benchmark.pedantic(study, args=(hpccg,), rounds=1, iterations=1)

    print()
    print(f"-- X9: optimal checkpoint interval, HPCCG-{N}, K={K}, MTBF=24h --")
    print(format_table(
        ["strategy", "dump cost (s)", "Young interval (s)",
         "analytic overhead", "simulated overhead"],
        [
            [s.value, f"{d:.0f}", f"{t:.0f}", f"{w * 100:.1f}%", f"{m * 100:.1f}%"]
            for s, (d, t, w, m) in results.items()
        ],
    ))

    deltas = {s: d for s, (d, _t, _w, _m) in results.items()}
    wastes = {s: w for s, (_d, _t, w, _m) in results.items()}
    # Cheaper dumps -> shorter optimal interval -> lower expected overhead.
    assert (
        deltas[Strategy.COLL_DEDUP]
        < deltas[Strategy.LOCAL_DEDUP]
        < deltas[Strategy.NO_DEDUP]
    )
    assert (
        wastes[Strategy.COLL_DEDUP]
        < wastes[Strategy.LOCAL_DEDUP]
        < wastes[Strategy.NO_DEDUP]
    )
    # Monte-Carlo agrees with the analytic overhead within a loose band.
    for s, (_d, _t, waste, measured) in results.items():
        assert measured == pytest.approx(waste, rel=0.6) or abs(measured - waste) < 0.05


