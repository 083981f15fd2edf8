"""Thread-vs-process differential execution.

Same seed, both SPMD backends: identical cluster digests, identical
normalized reports, identical invariant verdicts.  This is the oracle
that keeps the fork/shared-memory backend honest against the reference
thread implementation under crashes and repairs, not just healthy dumps.
"""

from repro.dst import (
    Scenario,
    Step,
    differential_check,
    execute_scenario,
    generate_scenario,
    run_scenario,
)


def test_backends_agree_on_healthy_dump():
    s = Scenario(seed=8, n_ranks=3, k=2, chunks_per_rank=3)
    thread = execute_scenario(s, backend="thread")
    process = execute_scenario(s, backend="process")
    assert differential_check(thread, process) == []


def test_backends_agree_under_mid_dump_crash():
    from repro.dst import MidDumpCrash

    s = Scenario(
        seed=8,
        n_ranks=4,
        k=3,
        steps=(
            Step("dump"),
            Step("dump", crash=MidDumpCrash(node=2, phase="write")),
            Step("repair"),
        ),
    )
    thread = execute_scenario(s, backend="thread")
    process = execute_scenario(s, backend="process")
    assert thread.ok and process.ok
    assert differential_check(thread, process) == []


def test_differential_scenario_runs_both_backends():
    s = Scenario(seed=8, n_ranks=3, k=2, chunks_per_rank=3,
                 differential=True)
    result = run_scenario(s)
    assert result.ok
    assert result.backend == "thread"
    # ... and agrees with an explicit run on either backend
    assert result.cluster_digest == execute_scenario(
        s, backend="process"
    ).cluster_digest


def test_divergence_is_reported():
    """Tampering with one side's digest must produce a differential
    violation — the comparison is not vacuous."""
    s = Scenario(seed=8, n_ranks=3, k=2, chunks_per_rank=3)
    thread = execute_scenario(s, backend="thread")
    process = execute_scenario(s, backend="process")
    process.cluster_digest = "0" * 64
    out = differential_check(thread, process)
    assert out and out[0].invariant == "differential"


def test_generated_differential_seeds_stay_green(memo):
    ran = 0
    for seed in range(40):
        scenario = generate_scenario(seed)
        if not scenario.differential:
            continue
        result = memo.run(scenario)
        assert result.ok, [v.as_dict() for v in result.violations]
        ran += 1
        if ran == 3:
            break
    assert ran == 3
