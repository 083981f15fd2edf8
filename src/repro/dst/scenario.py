"""Scenario model of the deterministic simulation tester.

A :class:`Scenario` is a complete, serializable description of one
dump→crash→repair→restore experiment: the cluster shape (ranks, K, chunk
geometry), the dump configuration flags under test (strategy, shuffle,
redundancy mode, compression, pipelining),
the synthetic workload composition, and an ordered *step schedule* mixing
collective dumps (optionally with a mid-dump node crash at a chosen
phase), between-dump node crashes and online repairs.

Scenarios are value objects: everything the executor does is a pure
function of the scenario, so serializing one to JSON
(:meth:`Scenario.to_json`) is a complete reproducer — `repro-eval fuzz
--replay file.json` re-runs it bit-identically, and the shrinker works by
transforming scenario values and re-executing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

SCENARIO_SCHEMA_ID = "repro.dst/scenario/v1"

#: phases at which a mid-dump crash may fire (see
#: :meth:`repro.storage.failures.FailureInjector.mid_dump_hook`); ``write``
#: exercises the final-commit drop path, ``exchange`` the longest window
#: between the liveness snapshot and the commit re-check.
MID_DUMP_PHASES = ("exchange", "write")

#: step operations understood by the executor; ``gc`` (multi-tenant
#: scenarios only) garbage-collects the acting tenant's oldest live dump;
#: ``tick`` advances logical time with no work — an idle service tick in
#: service scenarios (arrival gaps between bursts), a no-op otherwise;
#: ``prune``/``compact`` (chain scenarios only) retire the acting tenant's
#: oldest live epoch unless it is its last / rewrite its newest live epoch
#: as a synthetic full
STEP_OPS = ("dump", "crash", "repair", "gc", "tick", "prune", "compact")

#: step kinds that act for one tenant (``Step.tenant``)
TENANT_OPS = ("dump", "gc", "prune", "compact")

#: chain dump kinds a chain scenario's dump step may request (``delta``
#: silently promotes to ``full`` when there is no live parent or the
#: chunking is CDC)
CHAIN_DUMP_KINDS = ("full", "delta")

#: request arrival patterns for multi-tenant scenarios: ``steady`` submits
#: one dump per step (the historical shape); ``bursty`` submits every dump
#: of a consecutive-dump run up front, so later dumps queue behind earlier
#: ones and the queue-wait SLO sees real burn
ARRIVAL_MODES = ("steady", "bursty")


class ScenarioError(ValueError):
    """Raised for malformed scenario documents."""


@dataclass(frozen=True)
class MidDumpCrash:
    """A node crash fired while a dump is in flight.

    ``node`` doubles as the triggering rank: the crash fires when *that
    rank* enters ``phase``.  Tying the trigger to the dying node's own rank
    keeps the failure semantics identical across the thread backend (shared
    cluster, everyone sees the death) and the process backend (each rank
    owns a forked cluster copy; only the dying rank's commit decisions
    depend on the flag) — which is what makes mid-dump crashes usable in
    cross-backend differential runs.
    """

    node: int
    phase: str = "exchange"

    def __post_init__(self) -> None:
        if self.phase not in MID_DUMP_PHASES:
            raise ScenarioError(
                f"mid-dump crash phase must be one of {MID_DUMP_PHASES}, "
                f"got {self.phase!r}"
            )
        if self.node < 0:
            raise ScenarioError(f"crash node must be >= 0, got {self.node}")


@dataclass(frozen=True)
class Step:
    """One schedule entry: a dump (optionally with a mid-dump crash), a
    between-dump node crash, an online repair, or a tenant GC."""

    op: str
    node: int = -1  # crash steps only
    crash: Optional[MidDumpCrash] = None  # dump steps only
    #: acting tenant (:data:`TENANT_OPS` steps of multi-tenant scenarios)
    tenant: int = 0
    #: chain dump kind (dump steps of chain scenarios only)
    kind: str = "full"

    def __post_init__(self) -> None:
        if self.op not in STEP_OPS:
            raise ScenarioError(f"unknown step op {self.op!r}")
        if self.op == "crash" and self.node < 0:
            raise ScenarioError("crash step needs a node >= 0")
        if self.op != "dump" and self.crash is not None:
            raise ScenarioError("only dump steps may carry a mid-dump crash")
        if self.tenant < 0:
            raise ScenarioError(f"step tenant must be >= 0, got {self.tenant}")
        if self.op not in TENANT_OPS and self.tenant != 0:
            raise ScenarioError(
                f"only {'/'.join(TENANT_OPS)} steps may name a tenant"
            )
        if self.kind not in CHAIN_DUMP_KINDS:
            raise ScenarioError(
                f"dump kind must be one of {CHAIN_DUMP_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.op != "dump" and self.kind != "full":
            raise ScenarioError("only dump steps may carry a chain kind")

    def as_dict(self) -> dict:
        doc: dict = {"op": self.op}
        if self.op == "crash":
            doc["node"] = self.node
        if self.crash is not None:
            doc["crash"] = {"node": self.crash.node, "phase": self.crash.phase}
        if self.tenant != 0 or self.op == "gc":
            doc["tenant"] = self.tenant
        if self.kind != "full":
            doc["kind"] = self.kind
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Step":
        crash = doc.get("crash")
        return cls(
            op=doc.get("op", ""),
            node=int(doc.get("node", -1)),
            crash=(
                MidDumpCrash(int(crash["node"]), crash.get("phase", "exchange"))
                if crash is not None
                else None
            ),
            tenant=int(doc.get("tenant", 0)),
            kind=str(doc.get("kind", "full")),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic workload composition knobs (see
    :class:`repro.apps.synthetic.SyntheticWorkload`)."""

    frac_global: float = 0.2
    frac_zero: float = 0.1
    frac_local_dup: float = 0.2
    local_dup_degree: int = 2

    def as_dict(self) -> dict:
        return {
            "frac_global": self.frac_global,
            "frac_zero": self.frac_zero,
            "frac_local_dup": self.frac_local_dup,
            "local_dup_degree": self.local_dup_degree,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WorkloadSpec":
        return cls(
            frac_global=float(doc.get("frac_global", 0.2)),
            frac_zero=float(doc.get("frac_zero", 0.1)),
            frac_local_dup=float(doc.get("frac_local_dup", 0.2)),
            local_dup_degree=int(doc.get("local_dup_degree", 2)),
        )


@dataclass(frozen=True)
class Scenario:
    """One complete fuzz scenario (see module docstring)."""

    seed: int
    n_ranks: int = 4
    k: int = 3
    chunk_size: int = 64
    chunks_per_rank: int = 6
    f_threshold: int = 4096
    strategy: str = "coll-dedup"
    shuffle: bool = True
    redundancy: str = "replication"
    compress: Optional[str] = None
    #: request the double-buffered hash/exchange/write pipeline; silently
    #: falls back to the strict phase order when the dump is ineligible
    #: (a dead node in its liveness snapshot, parity) — byte-identical
    #: either way, which is exactly what the invariant oracles then re-prove
    pipelined: bool = False
    #: fingerprint integrity mode: ``"crypto"`` (sha1) or ``"fast"`` (the
    #: vectorised non-cryptographic xx128 kernel); :meth:`dump_config`
    #: maps it to ``DumpConfig.hash_name``
    integrity: str = "crypto"
    #: ``"fresh"`` — every dump gets new data (independent checkpoints);
    #: ``"repeat"`` — every dump is a full of dump 0's very content, so a
    #: later dump finds every chunk stored and sets a fresh replica floor.
    workload_mode: str = "fresh"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    steps: Tuple[Step, ...] = (Step("dump"),)
    #: run the scenario on both SPMD backends and require byte-identical
    #: reports, cluster state and invariant verdicts
    differential: bool = False
    #: tenants ``t0``, ``t1``, … of the
    #: :class:`~repro.svc.service.CheckpointService` every scenario runs
    #: on; with more than one, dumps interleave across tenants and ``gc``
    #: steps become legal
    tenants: int = 1
    #: fraction of multi-tenant dumps that write the cross-tenant shared
    #: base state (the redundancy the service dedups across tenants)
    tenant_overlap: float = 0.5
    #: fingerprint-prefix shards per node store (1 = flat store)
    shard_count: int = 1
    #: request arrival pattern (multi-tenant only, see :data:`ARRIVAL_MODES`)
    arrival: str = "steady"
    #: incremental checkpoint chain mode: every tenant dumps one
    #: epoch-evolving :class:`~repro.apps.mutating.MutatingWorkload`
    #: through the service as fulls and deltas (dump steps draw a ``kind``,
    #: ``prune``/``compact`` steps become legal); like any service scenario
    #: it is checked for restore-to-any-epoch soundness against the
    #: per-epoch oracle, refcount conservation and chain structure
    chain: bool = False

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ScenarioError(f"n_ranks must be >= 2, got {self.n_ranks}")
        if self.k < 1:
            raise ScenarioError(f"k must be >= 1, got {self.k}")
        if self.chunks_per_rank < 1:
            raise ScenarioError(
                f"chunks_per_rank must be >= 1, got {self.chunks_per_rank}"
            )
        if self.integrity not in ("crypto", "fast"):
            raise ScenarioError(
                f"integrity must be 'crypto' or 'fast', got {self.integrity!r}"
            )
        if self.workload_mode not in ("fresh", "repeat"):
            raise ScenarioError(
                f"workload_mode must be 'fresh' or 'repeat', "
                f"got {self.workload_mode!r}"
            )
        if not any(s.op == "dump" for s in self.steps):
            raise ScenarioError("a scenario needs at least one dump step")
        for step in self.steps:
            if step.op == "crash" and step.node >= self.n_ranks:
                raise ScenarioError(
                    f"crash step node {step.node} out of range for "
                    f"{self.n_ranks} ranks"
                )
            if step.crash is not None and step.crash.node >= self.n_ranks:
                raise ScenarioError(
                    f"mid-dump crash node {step.crash.node} out of range "
                    f"for {self.n_ranks} ranks"
                )
        if self.redundancy == "parity" and self.crash_count:
            raise ScenarioError("parity redundancy cannot be combined with "
                                "crash events (it tolerates no dead node)")
        if self.pipelined and any(s.crash is not None for s in self.steps):
            raise ScenarioError("pipelined scenarios cannot carry mid-dump "
                                "crashes (the pipelined dump assumes every "
                                "node that was alive at its start commits)")
        if self.tenants < 1:
            raise ScenarioError(f"tenants must be >= 1, got {self.tenants}")
        if self.shard_count < 1:
            raise ScenarioError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if not 0.0 <= self.tenant_overlap <= 1.0:
            raise ScenarioError(
                f"tenant_overlap must be in [0, 1], got {self.tenant_overlap}"
            )
        if self.tenants > 1 and self.workload_mode == "repeat":
            raise ScenarioError(
                "multi-tenant scenarios cannot use workload_mode='repeat' "
                "(a multi-tenant dump's content is drawn per tenant and "
                "dump, see make_workload)"
            )
        if self.tenants > 1 and self.redundancy == "parity":
            raise ScenarioError(
                "multi-tenant scenarios use replication redundancy only"
            )
        if self.arrival not in ARRIVAL_MODES:
            raise ScenarioError(
                f"arrival must be one of {ARRIVAL_MODES}, got {self.arrival!r}"
            )
        if self.arrival == "bursty" and self.tenants < 2:
            raise ScenarioError(
                "bursty arrival requires a multi-tenant scenario "
                "(tenants >= 2)"
            )
        if self.chain:
            if self.workload_mode != "fresh":
                raise ScenarioError(
                    "chain scenarios use the epoch-evolving mutating "
                    "workload; workload_mode must be 'fresh'"
                )
            if self.redundancy != "replication":
                raise ScenarioError(
                    "chain scenarios require replication redundancy "
                    "(parity stripes cannot span a chain)"
                )
        for step in self.steps:
            if step.op == "gc" and self.tenants < 2:
                raise ScenarioError(
                    "gc steps require a multi-tenant scenario (tenants >= 2)"
                )
            if step.op in TENANT_OPS and step.tenant >= self.tenants:
                raise ScenarioError(
                    f"step tenant {step.tenant} out of range for "
                    f"{self.tenants} tenants"
                )
            if step.op in ("prune", "compact") and not self.chain:
                raise ScenarioError(
                    f"{step.op} steps require a chain scenario"
                )
            if step.op == "dump" and step.kind != "full" and not self.chain:
                raise ScenarioError(
                    "delta dump steps require a chain scenario"
                )

    # -- derived ---------------------------------------------------------------
    @property
    def n_dumps(self) -> int:
        return sum(1 for s in self.steps if s.op == "dump")

    @property
    def crash_count(self) -> int:
        """Total crash events: between-dump steps plus mid-dump crashes."""
        return sum(
            1 for s in self.steps if s.op == "crash"
        ) + sum(1 for s in self.steps if s.crash is not None)

    @property
    def k_eff(self) -> int:
        return min(self.k, self.n_ranks)

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)

    def dump_config(self, trace_level: Optional[str] = None):
        """The :class:`~repro.core.config.DumpConfig` this scenario runs."""
        from repro.core.config import DumpConfig, Strategy
        from repro.core.fingerprint import FAST_HASH_NAME

        return DumpConfig(
            replication_factor=self.k,
            chunk_size=self.chunk_size,
            f_threshold=self.f_threshold,
            strategy=Strategy.parse(self.strategy),
            shuffle=self.shuffle,
            redundancy=self.redundancy,
            compress=self.compress,
            pipelined=self.pipelined,
            hash_name=FAST_HASH_NAME if self.integrity == "fast" else "sha1",
            trace_level=trace_level,
        )

    def shared_dump(self, dump_index: int) -> bool:
        """Whether multi-tenant dump ``dump_index`` writes the cross-tenant
        shared base state (a pure function of seed, index and overlap)."""
        if self.tenants <= 1:
            return False
        threshold = round(self.tenant_overlap * 100)
        return (self.seed * 31 + dump_index * 7) % 100 < threshold

    def make_workload(self, dump_index: int, tenant: int = 0):
        """The synthetic workload of dump ``dump_index`` (deterministic).

        ``fresh`` mode varies the content seed per dump so checkpoints are
        independent; ``repeat`` mode reuses dump 0's content for every dump.
        In multi-tenant scenarios a *shared* dump (see :meth:`shared_dump`)
        writes the tenant-independent base state — identical bytes whoever
        dumps it, the content the service dedups across tenants — while a
        non-shared dump writes content salted by ``tenant``.
        """
        from repro.apps.synthetic import SyntheticWorkload

        content = 0 if self.workload_mode == "repeat" else dump_index
        if self.tenants > 1:
            if self.shared_dump(dump_index):
                content = 0
            else:
                # Large odd salt keeps tenant streams disjoint from each
                # other and from the shared base state.
                content = (tenant + 1) * 104729 + dump_index * 31
        return SyntheticWorkload(
            chunks_per_rank=self.chunks_per_rank,
            chunk_size=self.chunk_size,
            frac_global=self.workload.frac_global,
            frac_zero=self.workload.frac_zero,
            frac_local_dup=self.workload.frac_local_dup,
            local_dup_degree=self.workload.local_dup_degree,
            seed=self.seed * 7919 + content,
        )

    def make_chain_workload(self, tenant: int = 0, epoch: int = 0):
        """What ``tenant`` dumps as epoch ``epoch`` of a chain scenario: its
        epoch-evolving workload, advanced that far (deterministic).

        Geometry is a pure function of the scenario's chunk knobs — most
        chunks land in segment 0, plus one unaligned segment and one short
        tail segment so delta slicing sees non-chunk-multiple boundaries.
        With probability ``tenant_overlap`` (decided as :meth:`shared_dump`
        decides) a later tenant dumps tenant 0's very content: same seed,
        so every chunk of every epoch is cross-tenant.
        """
        from repro.apps.mutating import MutatingWorkload

        cs = self.chunk_size
        main_chunks = max(1, self.chunks_per_rank - 2)
        salt = 0 if self.shared_dump(tenant) else tenant * 104729
        workload = MutatingWorkload(
            seed=self.seed * 6151 + 13 + salt,
            segment_lengths=(
                cs * main_chunks,
                cs + max(1, cs // 3),
                max(1, cs // 2),
            ),
            chunk_size=cs,
            dirty_frac=0.3,
        )
        workload.advance(epoch)
        return workload

    # -- serialization ---------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA_ID,
            "seed": self.seed,
            "n_ranks": self.n_ranks,
            "k": self.k,
            "chunk_size": self.chunk_size,
            "chunks_per_rank": self.chunks_per_rank,
            "f_threshold": self.f_threshold,
            "strategy": self.strategy,
            "shuffle": self.shuffle,
            "redundancy": self.redundancy,
            "compress": self.compress,
            "pipelined": self.pipelined,
            "integrity": self.integrity,
            "workload_mode": self.workload_mode,
            "workload": self.workload.as_dict(),
            "steps": [s.as_dict() for s in self.steps],
            "differential": self.differential,
            "tenants": self.tenants,
            "tenant_overlap": self.tenant_overlap,
            "shard_count": self.shard_count,
            "arrival": self.arrival,
            "chain": self.chain,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, stable formatting) — equal strings
        iff equal scenarios, which is what the determinism acceptance test
        compares."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError(f"expected an object, got {type(doc).__name__}")
        schema = doc.get("schema")
        if schema != SCENARIO_SCHEMA_ID:
            raise ScenarioError(
                f"expected schema {SCENARIO_SCHEMA_ID!r}, got {schema!r}"
            )
        try:
            return cls(
                seed=int(doc["seed"]),
                n_ranks=int(doc["n_ranks"]),
                k=int(doc["k"]),
                chunk_size=int(doc["chunk_size"]),
                chunks_per_rank=int(doc["chunks_per_rank"]),
                f_threshold=int(doc.get("f_threshold", 4096)),
                strategy=str(doc.get("strategy", "coll-dedup")),
                shuffle=bool(doc.get("shuffle", True)),
                redundancy=str(doc.get("redundancy", "replication")),
                compress=doc.get("compress"),
                pipelined=bool(doc.get("pipelined", False)),
                integrity=str(doc.get("integrity", "crypto")),
                workload_mode=str(doc.get("workload_mode", "fresh")),
                workload=WorkloadSpec.from_dict(doc.get("workload", {})),
                steps=tuple(Step.from_dict(s) for s in doc.get("steps", [])),
                differential=bool(doc.get("differential", False)),
                tenants=int(doc.get("tenants", 1)),
                tenant_overlap=float(doc.get("tenant_overlap", 0.5)),
                shard_count=int(doc.get("shard_count", 1)),
                arrival=str(doc.get("arrival", "steady")),
                chain=bool(doc.get("chain", False)),
            )
        except KeyError as exc:
            raise ScenarioError(f"scenario document missing key {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from None
        return cls.from_dict(doc)


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_json(fh.read())


def save_scenario(path, scenario: Scenario) -> None:
    """Write a scenario as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.to_json())
