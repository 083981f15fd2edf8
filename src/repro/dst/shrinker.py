"""Greedy scenario shrinking: reduce a failing scenario to a minimal one.

Classic delta-debugging fixpoint: propose simplifications in a fixed,
deterministic order (drop crash/repair events first — they are the usual
red herrings — then dumps, then ranks, K, chunk counts, then feature
flags), accept a candidate iff it *still fails* under the same oracle, and
repeat until a full pass accepts nothing.  The oracle re-executes the
candidate, so an accepted shrink is a verified reproducer by construction,
and the whole walk is bounded by an evaluation budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional

from repro.dst.scenario import Scenario, ScenarioError


@dataclass
class ShrinkResult:
    """The minimal failing scenario and how the walk got there."""

    scenario: Scenario
    evaluations: int = 0
    accepted: int = 0
    #: human-readable trail of accepted simplifications
    trail: List[str] = field(default_factory=list)


def _without_index(steps, index: int):
    return tuple(s for i, s in enumerate(steps) if i != index)


def _drop(scenario: Scenario, ops) -> Iterator:
    """Candidates dropping one step of the given kinds each."""
    for i, step in enumerate(scenario.steps):
        if step.op in ops:
            yield (
                f"drop {step.op} step {i}",
                lambda s=scenario, i=i: s.with_(
                    steps=_without_index(s.steps, i)
                ),
            )


def _reduce(scenario, name, floor, targets, also=lambda s, t: {}) -> Iterator:
    """Candidates setting the integer knob ``name`` to each smaller target."""
    for target in sorted(targets):
        if floor <= target < getattr(scenario, name):
            yield (
                f"reduce {name} to {target}",
                lambda s=scenario, t=target: s.with_(
                    **{name: t}, **also(s, t)
                ),
            )


def _candidates(scenario: Scenario) -> Iterator:
    """Yield ``(description, candidate)`` simplifications, simplest wins
    first.  Invalid candidates (scenario validation) are skipped by the
    caller."""
    steps = scenario.steps
    # 1. Drop between-dump crash / repair / collection / compaction events.
    yield from _drop(scenario, ("crash", "repair", "gc", "prune", "compact"))
    # 1b. Drop idle tick steps and fall back to steady arrival — burst
    #     shape rarely matters to a minimal reproducer.
    yield from _drop(scenario, ("tick",))
    if scenario.arrival != "steady":
        yield (
            "set arrival=steady",
            lambda s=scenario: s.with_(arrival="steady"),
        )
    # 2. Strip mid-dump crashes off dump steps (keep tenant/kind intact).
    for i, step in enumerate(steps):
        if step.op == "dump" and step.crash is not None:
            yield (
                f"remove mid-dump crash from step {i}",
                lambda s=scenario, i=i: s.with_(steps=tuple(
                    replace(st, crash=None) if j == i else st
                    for j, st in enumerate(s.steps)
                )),
            )
    # 2b. Simplify chain deltas to fulls — a failure that survives is
    #     independent of the diffing/inheritance machinery.
    for i, step in enumerate(steps):
        if step.op == "dump" and step.kind == "delta":
            yield (
                f"promote delta dump step {i} to full",
                lambda s=scenario, i=i: s.with_(steps=tuple(
                    replace(st, kind="full") if j == i else st
                    for j, st in enumerate(s.steps)
                )),
            )
    # 3. Drop dump steps (keep at least one).
    if scenario.n_dumps > 1:
        yield from _drop(scenario, ("dump",))
    # 4. Shrink the cluster.  Crash victims beyond the new size make the
    #    candidate invalid and it is skipped — event-dropping above opens
    #    the way first.  Then K, then the data.
    n, k, chunks = scenario.n_ranks, scenario.k, scenario.chunks_per_rank
    yield from _reduce(scenario, "n_ranks", 2, {2, n // 2, n - 1})
    yield from _reduce(scenario, "k", 1, {1, 2, k - 1})
    yield from _reduce(scenario, "chunks_per_rank", 1, {1, 2, chunks // 2})
    # 7. Simplify feature flags and the workload mix.
    if scenario.compress is not None:
        yield (
            "drop compression",
            lambda s=scenario: s.with_(compress=None),
        )
    if scenario.workload_mode != "fresh":
        yield (
            "workload_mode -> fresh",
            lambda s=scenario: s.with_(workload_mode="fresh"),
        )
    if scenario.differential:
        yield (
            "drop differential",
            lambda s=scenario: s.with_(differential=False),
        )
    if scenario.shuffle:
        yield (
            "disable shuffle",
            lambda s=scenario: s.with_(shuffle=False),
        )
    # 8. Leave chain mode last: only valid once every prune/compact step
    #    and delta dump kind has been simplified away (validation rejects
    #    the candidate otherwise), at which point the schedule is a plain
    #    dump run.
    if scenario.chain:
        yield (
            "disable chain mode",
            lambda s=scenario: s.with_(chain=False),
        )
    # 9. Then fewer tenants, folding their steps onto the ones that stay;
    #    a single tenant is only valid once every gc step and bursty
    #    arrival went, and is the bare cluster: the simplest reproducer.
    yield from _reduce(
        scenario, "tenants", 1, {1, scenario.tenants - 1},
        lambda s, t: {"steps": tuple(
            replace(st, tenant=st.tenant % t) for st in s.steps
        )},
    )


def shrink(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_evaluations: int = 150,
) -> ShrinkResult:
    """Greedily minimize ``scenario`` while ``still_fails`` holds.

    ``still_fails`` must re-execute the candidate and report whether the
    original failure (any invariant violation) reproduces; the input
    scenario is assumed failing and is returned unchanged when no
    simplification survives.
    """
    result = ShrinkResult(scenario=scenario)
    current = scenario
    progress = True
    while progress and result.evaluations < max_evaluations:
        progress = False
        for description, make in _candidates(current):
            if result.evaluations >= max_evaluations:
                break
            try:
                candidate = make()
            except ScenarioError:
                continue
            result.evaluations += 1
            if still_fails(candidate):
                current = candidate
                result.accepted += 1
                result.trail.append(description)
                progress = True
                break  # restart the candidate walk from the smaller scenario
    result.scenario = current
    return result
