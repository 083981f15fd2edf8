"""Deterministic simulation testing (DST) for the collective-dump stack.

The paper's guarantee — after ``DUMP_OUTPUT`` every chunk lives on
``min(K, live)`` distinct nodes and any K-1 losses are survivable — now
spans the collective dump (dead nodes, parity redundancy, both SPMD
backends), online repair, the multi-tenant service and checkpoint chains.
Hand-written scenarios cover their pairwise compositions; this package
searches the rest of the space:

* :mod:`repro.dst.scenario`  — serializable scenario values (the unit of
  generation, replay and shrinking);
* :mod:`repro.dst.generator` — seed → scenario, bit-deterministic;
* :mod:`repro.dst.executor`  — one step interpreter (``crash``,
  ``repair`` and the dump tail are written once, the invariant battery
  runs after every step, a step that raises becomes a ``step-error``
  finding) over two small systems: the bare cluster, and the
  ``CheckpointService`` every multi-tenant or chain scenario runs behind;
* :mod:`repro.dst.invariants` — the oracle library (replication floors,
  restore byte-equality, referential integrity, CALC_OFF window tiling,
  audit consistency, cross-backend equivalence);
* :mod:`repro.dst.shrinker`  — greedy minimization of failing scenarios;
* :mod:`repro.dst.corpus`    — the checked-in seed corpus CI replays.

Entry point: ``repro-eval fuzz --seed N`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from repro.dst.corpus import (
    CORPUS_SEEDS,
    default_corpus_dir,
    iter_corpus,
    write_corpus,
)
from repro.dst.executor import (
    BUGS,
    FuzzResult,
    ReplicaLedger,
    VERDICT_SCHEMA_ID,
    cluster_digest,
    differential_check,
    execute_scenario,
    run_scenario,
)
from repro.dst.generator import generate_scenario
from repro.dst.invariants import Violation
from repro.dst.scenario import (
    MidDumpCrash,
    SCENARIO_SCHEMA_ID,
    Scenario,
    ScenarioError,
    Step,
    WorkloadSpec,
    load_scenario,
    save_scenario,
)
from repro.dst.shrinker import ShrinkResult, shrink

__all__ = [
    "BUGS",
    "CORPUS_SEEDS",
    "FuzzResult",
    "MidDumpCrash",
    "ReplicaLedger",
    "SCENARIO_SCHEMA_ID",
    "Scenario",
    "ScenarioError",
    "ShrinkResult",
    "Step",
    "VERDICT_SCHEMA_ID",
    "Violation",
    "WorkloadSpec",
    "cluster_digest",
    "default_corpus_dir",
    "differential_check",
    "execute_scenario",
    "generate_scenario",
    "iter_corpus",
    "load_scenario",
    "run_scenario",
    "save_scenario",
    "shrink",
    "write_corpus",
]
