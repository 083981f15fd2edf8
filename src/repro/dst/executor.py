"""Scenario executor: one step interpreter runs a
:class:`~repro.dst.scenario.Scenario` as a dump→crash→repair→restore loop
over one of three systems (bare cluster, service, chain), with the
system's invariant battery after every step.

Execution is a pure function of the scenario (and the chosen backend):
datasets come from the seeded synthetic workload, failures fire at the
scheduled nodes and phases, and the resulting
:class:`FuzzResult`/verdict document carries no timestamps or other
ambient state — two same-seed runs are byte-identical, which is what makes
``repro-eval fuzz --seed N --replay`` a real reproducer.

The replication oracle is a :class:`ReplicaLedger`: a conservative lower
bound on live replicas per ``(dump, rank)``, established at dump time from
the liveness snapshot, decremented once per node death (a death removes at
most one replica of any chunk), and reset by repair for everything still
restorable.  The cluster violating its own ledger is always a bug.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chain import ChainManager
from repro.core.dump import dump_output
from repro.core.fpcache import FingerprintCache
from repro.core.restore import verify_restorable
from repro.core.runner import run_collective
from repro.dst import invariants as inv
from repro.dst.scenario import MidDumpCrash, Scenario, ScenarioError, Step
from repro.obs.export import merge_traces
from repro.obs.slo import SLOEngine
from repro.repair import repair_cluster
from repro.simmpi.trace import Trace
from repro.storage.failures import FailureInjector
from repro.storage.local_store import Cluster
from repro.svc.errors import ServiceError
from repro.svc.service import CheckpointService

log = logging.getLogger(__name__)

VERDICT_SCHEMA_ID = "repro.dst/verdict/v1"

#: mutation names accepted by ``execute_scenario(bug=...)`` — deliberate
#: correctness bugs used to prove the harness actually catches violations
BUGS = ("drop-replica",)

#: report fields excluded from the cross-backend digest: the fingerprint
#: cache exists only on the thread backend (per-rank caches do not survive
#: the process backend's forks), so its hit counters legitimately differ.
_BACKEND_SPECIFIC_FIELDS = ("cache_hits", "cache_bytes_skipped")

#: SLO configuration armed on every multi-tenant scenario.  Queue-wait
#: ticks are pure logical time, so the alert timeline joins the verdict's
#: byte-equality contract; the windows are short to match the short step
#: schedules the generator draws (steady runs wait 1 tick, bursty runs
#: queue behind each other and trip the p95 threshold).
SVC_SLO_OBJECTIVES = ("dump.queue_wait_ticks.p95 < 2",)
SVC_SLO_WINDOWS = ((8, 1.0), (4, 1.0))
SVC_SLO_MIN_SAMPLES = 3


@dataclass
class FuzzResult:
    """Outcome of executing one scenario on one backend."""

    scenario: Scenario
    backend: str
    violations: List[inv.Violation] = field(default_factory=list)
    steps: List[dict] = field(default_factory=list)
    cluster_digest: str = ""
    reports_digest: str = ""
    #: per-rank merged traces (``collect_trace=True`` only)
    traces: Optional[list] = None
    #: the service SLO engine's deterministic verdict (multi-tenant
    #: scenarios only; tick-based, so it joins the byte-equality contract)
    slo: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def verdict(self) -> dict:
        """The deterministic verdict document (JSON-able, timestamp-free)."""
        doc = {
            "schema": VERDICT_SCHEMA_ID,
            "seed": self.scenario.seed,
            "backend": self.backend,
            "ok": self.ok,
            "steps": self.steps,
            "violations": [v.as_dict() for v in self.violations],
            "cluster_digest": self.cluster_digest,
            "reports_digest": self.reports_digest,
        }
        if self.slo is not None:
            doc["slo"] = self.slo
        return doc

    def verdict_json(self) -> str:
        return json.dumps(self.verdict(), indent=2, sort_keys=True) + "\n"


class ReplicaLedger:
    """Lower-bound replica bookkeeping per ``(dump_id, rank)``."""

    def __init__(self, k_eff: int) -> None:
        self.k_eff = k_eff
        self.floors: Dict[Tuple[int, int], int] = {}

    def record_dump(
        self, dump_id: int, alive_snapshot: List[bool]
    ) -> None:
        """A dump taken under ``alive_snapshot`` establishes its floors:
        ``min(K_eff, live)`` per rank, one less for a rank whose own node
        was already dead (its data lives only on partners)."""
        live = sum(alive_snapshot)
        for rank, rank_alive in enumerate(alive_snapshot):
            base = min(self.k_eff, live)
            if not rank_alive:
                base = min(self.k_eff - 1, live)
            self.floors[(dump_id, rank)] = max(0, base)

    def record_death(self) -> None:
        """One node died: every dump may have lost at most one replica of
        each of its chunks."""
        for key in self.floors:
            if self.floors[key] > 0:
                self.floors[key] -= 1

    def record_repair(self, cluster: Cluster) -> None:
        """Repair re-replicates everything still restorable back to
        ``min(K_eff, live)``; anything already lost stays lost."""
        live = len(cluster.alive_nodes)
        for (dump_id, rank) in self.floors:
            if verify_restorable(cluster, rank, dump_id) is None:
                self.floors[(dump_id, rank)] = max(0, min(self.k_eff, live))
            else:
                self.floors[(dump_id, rank)] = 0


def _inject_drop_replica(cluster: Cluster) -> Optional[str]:
    """Mutation ``drop-replica``: silently delete one replica of the first
    chunk that has at least two live holders — the exact class of
    replication-count bug the ledger invariant exists to catch.  Returns a
    description of what was dropped, or None when no chunk is replicated."""
    fps = set()
    for node in cluster.nodes:
        for rank, dump_id in sorted(node.manifest_keys()):
            fps.update(node.get_manifest(rank, dump_id).fingerprints)
    for fp in sorted(fps):
        holders = cluster.locate(fp)
        if len(holders) < 2:
            continue
        victim = cluster.nodes[max(holders)]
        victim.chunks.discard(fp)
        return f"dropped chunk {fp.hex()[:12]} from node {victim.node_id}"
    return None


def _normalized_report(report) -> dict:
    """Full report as a plain dict, minus backend-specific fields."""
    doc = {
        name: getattr(report, name)
        for name in report.__dataclass_fields__
        if name not in _BACKEND_SPECIFIC_FIELDS
    }
    doc["sent_per_partner"] = list(report.sent_per_partner)
    doc["load"] = list(report.load)
    doc["partners"] = list(report.partners)
    return doc


def cluster_digest(cluster: Cluster) -> str:
    """Deterministic digest of the full cluster state: per-node chunk
    refcounts, byte accounting, manifest blobs, parity records and liveness.
    Two runs leaving byte-identical clusters produce equal digests."""
    h = hashlib.sha256()
    for node in cluster.nodes:
        h.update(b"node%d alive=%d\n" % (node.node_id, node.alive))
        for fp in sorted(node.chunks.fingerprints()):
            h.update(fp)
            h.update(b"=%d:" % node.chunks.refcount(fp))
            h.update(hashlib.sha256(node.chunks.get(fp)).digest())
        h.update(
            b"bytes %d %d %d\n"
            % (
                node.chunks.logical_bytes,
                node.chunks.physical_bytes,
                node.chunks.put_count,
            )
        )
        for key in sorted(node.manifest_keys()):
            h.update(b"manifest %d %d " % key)
            h.update(hashlib.sha256(node.get_manifest_blob(*key)).digest())
        for record in node._parity:
            h.update(b"parity ")
            h.update(repr(record.stripe_key()).encode())
            h.update(record.shard)
    return h.hexdigest()


def reports_digest(all_reports: List[List]) -> str:
    """Deterministic digest over every dump's normalized per-rank reports."""
    doc = [[_normalized_report(r) for r in reports] for reports in all_reports]
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class BareSystem:
    """The bare cluster, and the base the other two systems extend.

    A *system* is what the step loop drives, and it owns everything that
    differs between the three: how the cluster is built, what a dump is
    (and which step-document fields it adds), who repairs, its byte
    oracle, the ordered invariant battery, and the step kinds beyond
    ``dump``/``crash``/``repair`` it understands (:attr:`ops`: ``op ->
    handler(step, step_idx, step_doc)``, which may return violations).
    Of the loop's state it sees only the ledger and the ``arm_crash``
    helper passed to :meth:`dump`.

    Here a dump is one ``dump_output`` collective over the seeded
    synthetic workload, with dump ids counting up from 0.
    """

    def __init__(
        self, scenario: Scenario, backend: str, config, ledger: ReplicaLedger,
        trace: Optional[Trace] = None,
    ) -> None:
        self.scenario = scenario
        self.backend = backend
        self.config = config
        self.ledger = ledger
        #: the driver pseudo-rank's trace (``collect_trace`` only)
        self.trace = trace
        self.n = scenario.n_ranks
        #: worlds / trace lists merged into ``result.traces``
        self.trace_sources: List[object] = []
        self.ops: Dict[str, Callable] = {"tick": self.tick}
        self.setup()

    def setup(self) -> None:
        self.cluster = Cluster(self.n, shard_count=self.scenario.shard_count)
        self.next_dump_id = 0
        self.fpcaches: Dict[int, FingerprintCache] = {}
        self.use_fpcache = (
            self.scenario.workload_mode == "repeat"
            and self.config.chunking == "fixed"
            and self.backend == "thread"
        )

    def tick(self, step: Step, step_idx: int, step_doc: dict) -> None:
        # Idle ticks model arrival gaps; without a service queue there
        # is no logical clock to advance, so they are pure no-ops.
        step_doc["noop"] = True

    def repair(self):
        return repair_cluster(
            self.cluster, self.scenario.k, backend=self.backend
        )

    def dump(self, step: Step, step_idx: int, step_doc: dict, arm_crash):
        """Run one dump; returns ``(dump_id, reports, crash_that_fired)``."""
        n, config, cluster = self.n, self.config, self.cluster
        this_dump = self.next_dump_id
        workload = self.scenario.make_workload(this_dump)
        crash, phase_hook = arm_crash(step.crash)
        all_clean = self.use_fpcache and this_dump > 0

        def rank_main(comm):
            dataset = workload.build_dataset(comm.rank, n)
            dirty = None
            fpc = None
            if self.use_fpcache:
                fpc = self.fpcaches.get(comm.rank)
                if fpc is None:
                    fpc = self.fpcaches[comm.rank] = FingerprintCache(
                        config.chunk_size, config.effective_hash_name
                    )
                if all_clean:
                    # "repeat" mode rewrites identical content, so
                    # declaring every segment clean is truthful.
                    dirty = [[] for _ in range(dataset.num_segments)]
            return dump_output(
                comm, dataset, config, cluster,
                dump_id=this_dump, fpcache=fpc,
                dirty_regions=dirty, phase_hook=phase_hook,
            )

        reports, world = run_collective(
            n, rank_main, cluster=cluster, backend=self.backend
        )
        if self.trace is not None:
            self.trace_sources.append(world)
        self.next_dump_id += 1
        return this_dump, reports, crash

    def oracle(self, dump_id: int, rank: int) -> bytes:
        workload = self.scenario.make_workload(dump_id)
        return workload.build_dataset(rank, self.n).to_bytes()

    def pop_floors(self, dump_ids) -> None:
        """Dumps that were collected on purpose no longer owe replicas."""
        for did in dump_ids:
            for rank in range(self.n):
                self.ledger.floors.pop((did, rank), None)

    def battery(self) -> List[tuple]:
        """The ``(verdict name, check(step_idx) -> violations)`` pairs armed
        after every step, in verdict order."""
        cluster, floors = self.cluster, self.ledger.floors
        parity = self.scenario.redundancy == "parity"

        def restore(step_idx: int) -> List[inv.Violation]:
            # Parity promises restorability, not a replica count.
            wanted = {key: 1 for key in floors} if parity else floors
            return inv.check_restore(cluster, step_idx, wanted, self.oracle)

        checks = [
            ("parity-margin", lambda i: inv.check_parity_margin(
                cluster, i, self.scenario.k_eff
            )),
            ("replication", lambda i: inv.check_replication(
                cluster, i, floors
            )),
            ("restore", restore),
            ("audit-consistency", lambda i: inv.check_audit_consistency(
                cluster, i, sorted({d for d, _r in floors}), floors
            )),
            ("referential-integrity", lambda i: (
                inv.check_referential_integrity(cluster, i)
            )),
        ]
        # Parity keeps shards, not replicas: its margin check stands in
        # for the two replica-count oracles.
        unarmed = (
            ("replication", "audit-consistency") if parity
            else ("parity-margin",)
        )
        return [check for check in checks if check[0] not in unarmed]

    def finish(self, result: FuzzResult) -> None:
        """Add what only this system knows to the finished result."""


class ServiceSystem(BareSystem):
    """A multi-tenant scenario on :class:`repro.svc.CheckpointService`.

    Dumps route through the service's admission queue — one executes per
    tick, so under ``steady`` arrival the schedule is exactly the
    scenario's step order, while ``bursty`` arrival submits every dump of
    a consecutive-dump run up front (later dumps queue behind earlier
    ones, so queue waits grow and the armed queue-wait SLO sees real
    burn); ``tick`` steps advance the service clock idly between bursts.
    GC steps collect the named tenant's oldest live dump, and the
    invariant battery gains three service oracles: tenant isolation,
    cross-tenant accounting and SLO determinism (a fresh engine replayed
    over the timeline must reproduce the live alert list).  The replica
    ledger works on *global* dump ids, matching the manifest keys the
    service actually writes.
    """

    def setup(self) -> None:
        self.service = service = CheckpointService(
            self.n, config=self.config, backend=self.backend,
            shard_count=self.scenario.shard_count, max_inflight=1,
        )
        service.attach_slo(SLOEngine(
            SVC_SLO_OBJECTIVES, windows=SVC_SLO_WINDOWS,
            min_samples=SVC_SLO_MIN_SAMPLES,
        ))
        self.cluster = service.cluster
        self.trace_sources.append([service.trace])
        self.tenant_names = [f"t{i}" for i in range(self.scenario.tenants)]
        for name in self.tenant_names:
            service.register_tenant(name)
        #: tenant name -> live (tenant_dump_id, global_dump_id), oldest first
        self.live_dumps: Dict[str, List[Tuple[int, int]]] = {
            name: [] for name in self.tenant_names
        }
        #: global dump id -> (tenant idx, scenario dump idx), for the oracle
        self.dump_meta: Dict[int, Tuple[int, int]] = {}
        #: ticket -> (tenant index, scenario dump index, crash that will fire)
        self.pending_meta: Dict[int, Tuple[int, int, Optional[object]]] = {}
        self.submit_dump_index = 0  # scenario dump index of next submission
        self.next_submit_idx = 0  # first step whose dump is not yet submitted
        self.ops["gc"] = self.gc

    def tick(self, step: Step, step_idx: int, step_doc: dict) -> None:
        self.service.tick_idle()
        step_doc["tick"] = self.service.tick

    def repair(self):
        return self.service.repair()

    def submit_run(self, start_idx: int, arm_crash) -> int:
        """Submit the dump at ``start_idx`` — and, under bursty arrival,
        every consecutive dump step after it (the burst).  Mid-dump crash
        liveness is judged at submission: a burst has no crash/repair
        steps inside it and the generator never targets one node twice,
        so run-start liveness is execution-time liveness for every victim.
        Returns the first step index past the submitted stretch.
        """
        steps = self.scenario.steps
        j = start_idx
        while j < len(steps) and steps[j].op == "dump":
            s = steps[j]
            workload = self.scenario.make_workload(
                self.submit_dump_index, tenant=s.tenant
            )
            crash, phase_hook = arm_crash(s.crash)
            ticket = self.service.submit(
                self.tenant_names[s.tenant], workload, phase_hook=phase_hook
            )
            self.pending_meta[ticket] = (
                s.tenant, self.submit_dump_index, crash
            )
            self.submit_dump_index += 1
            j += 1
            if self.scenario.arrival != "bursty":
                break
        return j

    def dump(self, step: Step, step_idx: int, step_doc: dict, arm_crash):
        if step_idx >= self.next_submit_idx:
            self.next_submit_idx = self.submit_run(step_idx, arm_crash)
        # One dump executes per tick (max_inflight=1); under bursty
        # arrival the admission queue's round-robin may execute a
        # different tenant's dump than this step submitted, so the
        # outcome's own ticket keys the bookkeeping.
        outcome = self.service.step()[0]
        tenant_idx, dump_index, crash = self.pending_meta.pop(outcome.ticket)
        global_id = outcome.global_dump_id
        self.dump_meta[global_id] = (tenant_idx, dump_index)
        self.live_dumps[outcome.tenant].append(
            (outcome.tenant_dump_id, global_id)
        )
        step_doc["tenant"] = outcome.tenant
        step_doc["wait_ticks"] = outcome.wait_ticks
        return global_id, outcome.reports, crash

    def gc(self, step: Step, step_idx: int, step_doc: dict):
        name = self.tenant_names[step.tenant]
        step_doc["tenant"] = name
        if not self.live_dumps[name]:
            step_doc["noop"] = True
            return None
        tenant_dump_id, global_id = self.live_dumps[name].pop(0)
        gc_outcome = self.service.gc(name, tenant_dump_id)
        self.pop_floors([global_id])
        step_doc["dump_id"] = global_id
        step_doc["chunks_dropped"] = gc_outcome.chunks_dropped
        step_doc["chunks_retained"] = gc_outcome.chunks_retained
        step_doc["retained_cross_tenant"] = gc_outcome.retained_cross_tenant
        try:
            self.service.restore(name, 0, tenant_dump_id)
        except ServiceError:
            return None
        return [inv.Violation(
            "tenant-isolation", step_idx,
            f"tenant {name!r} restored dump {tenant_dump_id} "
            f"after garbage-collecting it",
        )]

    def oracle(self, dump_id: int, rank: int) -> bytes:
        tenant_idx, scenario_dump = self.dump_meta[dump_id]
        workload = self.scenario.make_workload(
            scenario_dump, tenant=tenant_idx
        )
        return workload.build_dataset(rank, self.n).to_bytes()

    def battery(self) -> List[tuple]:
        service = self.service
        return super().battery() + [
            ("tenant-isolation",
             lambda i: inv.check_tenant_isolation(service, i)),
            ("cross-tenant-accounting",
             lambda i: inv.check_cross_tenant_accounting(service, i)),
            ("slo-determinism",
             lambda i: inv.check_slo_determinism(service, i)),
        ]

    def finish(self, result: FuzzResult) -> None:
        result.slo = self.service.slo.verdict(self.service.timeline)


class ChainSystem(BareSystem):
    """A chain scenario on :class:`repro.chain.ChainManager`.

    Dumps flow through ``chain_dump`` (mostly deltas over an
    epoch-evolving :class:`~repro.apps.mutating.MutatingWorkload`),
    ``prune`` retires the oldest live non-tip epoch, ``compact`` rewrites
    the tip into a synthetic full, and ticks and repairs behave exactly
    as on the bare cluster.  The per-dump replica ledger keeps working on
    physical dump ids (a delta's manifests list only its own chunks —
    precisely what its floors protect); compaction migrates the old dump
    id's floors to the new id at the *effective* (path-minimum) level and
    sweeps pop the floors of dropped epochs.

    On top of the base battery (minus the per-dump restore check — a
    chain delta is not independently restorable by design, and the typed
    rejection has its own regression suite) the battery arms the three
    chain oracles: structural integrity, refcount conservation and
    restore-to-any-epoch byte-equality against the per-epoch workload
    oracle under the effective floor.

    With ``collect_trace`` the manager's ``chain-*`` spans land on the
    driver pseudo-rank; per-rank collective traces stay inside the
    manager's dumps and are not collected.
    """

    def setup(self) -> None:
        super().setup()
        self.manager = ChainManager(
            self.cluster, self.config, self.n, backend=self.backend,
            trace=self.trace,
        )
        self.workload = self.scenario.make_chain_workload()
        self.ops["prune"] = self.prune
        self.ops["compact"] = self.compact

    def dump(self, step: Step, step_idx: int, step_doc: dict, arm_crash):
        manager, workload = self.manager, self.workload
        target_epoch = manager.next_epoch
        if target_epoch > workload.epoch:
            workload.advance(target_epoch - workload.epoch)
        crash, phase_hook = arm_crash(step.crash)
        dump_res = manager.chain_dump(
            workload, kind=step.kind, phase_hook=phase_hook
        )
        step_doc["epoch"] = dump_res.epoch
        step_doc["kind"] = dump_res.kind
        step_doc["promoted"] = dump_res.promoted
        step_doc["changed_chunks"] = dump_res.changed_chunks
        step_doc["total_chunks"] = dump_res.total_chunks
        return dump_res.dump_id, dump_res.reports, crash

    def path_floors(self, epoch: int) -> Dict[int, int]:
        """Per rank: the minimum replica floor over every dump on the
        epoch's ancestor path — losing any ancestor below its floor breaks
        every descendant's time travel."""
        path = self.manager.path_of(epoch)
        return {
            rank: min(
                self.ledger.floors.get((node.dump_id, rank), 0)
                for node in path
            )
            for rank in range(self.n)
        }

    def dump_ids(self) -> Dict[int, int]:
        return {e: node.dump_id for e, node in self.manager.nodes.items()}

    def prune(self, step: Step, step_idx: int, step_doc: dict) -> None:
        live = self.manager.live_epochs()
        if len(live) < 2:
            # Never collect the tip: time travel to *somewhere* must
            # survive every schedule the generator draws.
            step_doc["noop"] = True
            return
        victim = live[0]
        ids_before = self.dump_ids()
        gc_res = self.manager.prune(victim)
        self.pop_floors(ids_before[e] for e in gc_res.swept_epochs)
        step_doc["epoch"] = victim
        step_doc["chunks_dropped"] = gc_res.chunks_dropped
        step_doc["bytes_freed"] = gc_res.bytes_freed
        step_doc["pinned"] = gc_res.pinned
        step_doc["swept_epochs"] = list(gc_res.swept_epochs)

    def compact(self, step: Step, step_idx: int, step_doc: dict) -> None:
        manager = self.manager
        live = manager.live_epochs()
        tip_epoch = live[-1] if live else None
        tip = manager.nodes[tip_epoch] if live else None
        if tip is None or (tip.kind == "full" and tip.parent_epoch is None):
            step_doc["noop"] = True
            return
        ids_before = self.dump_ids()
        # The synthetic full inherits ancestors' chunks, so its
        # floor is only as good as the weakest dump on the path.
        eff = self.path_floors(tip_epoch)
        compact_res = manager.compact(tip_epoch)
        self.pop_floors([compact_res.old_dump_id])
        for rank in range(self.n):
            self.ledger.floors[(compact_res.new_dump_id, rank)] = eff[rank]
        self.pop_floors(ids_before[e] for e in compact_res.swept_epochs)
        step_doc["epoch"] = tip_epoch
        step_doc["old_dump_id"] = compact_res.old_dump_id
        step_doc["new_dump_id"] = compact_res.new_dump_id
        step_doc["swept_epochs"] = list(compact_res.swept_epochs)

    def oracle(self, epoch: int, rank: int) -> bytes:
        dataset = self.workload.at_epoch(epoch).build_dataset(rank, self.n)
        return dataset.to_bytes()

    def effective_floors(self) -> Dict[Tuple[int, int], int]:
        return {
            (epoch, rank): floor
            for epoch in self.manager.live_epochs()
            for rank, floor in self.path_floors(epoch).items()
        }

    def battery(self) -> List[tuple]:
        manager = self.manager
        return [
            check for check in super().battery() if check[0] != "restore"
        ] + [
            ("chain-structure",
             lambda i: inv.check_chain_structure(manager, i)),
            ("chain-refcounts",
             lambda i: inv.check_chain_refcounts(manager, i)),
            ("chain-restore", lambda i: inv.check_chain_restore(
                manager, i, self.effective_floors(), self.oracle
            )),
        ]


def system_for(scenario: Scenario) -> type:
    """The system a scenario runs on, chosen from the scenario itself."""
    if scenario.chain:
        return ChainSystem
    return ServiceSystem if scenario.tenants > 1 else BareSystem


def execute_scenario(
    scenario: Scenario,
    backend: str = "thread",
    bug: Optional[str] = None,
    collect_trace: bool = False,
) -> FuzzResult:
    """Run ``scenario`` on ``backend`` and check invariants after every step.

    ``bug`` injects a named mutation (see :data:`BUGS`) after every dump —
    used by the suite to prove the invariants actually fire.  With
    ``collect_trace`` every collective runs at span level and the merged
    per-rank traces land on ``result.traces`` (plus a driver pseudo-rank
    narrating the step schedule), ready for ``repro-eval trace``.

    This is the one step loop.  It owns what is the same on every system
    (liveness and the :class:`ReplicaLedger`, ``crash``, ``repair``, arming
    a mid-dump crash, the dump tail, the battery, the digests, the driver
    pseudo-rank); what a dump, a tick or a ``gc`` is belongs to the system
    (see :class:`BareSystem`).  A step or a check that raises is a finding,
    not a traceback: one ``step-error`` violation, and the run ends there.
    """
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown bug {bug!r}; expected one of {BUGS}")
    n = scenario.n_ranks
    k_eff = scenario.k_eff
    result = FuzzResult(scenario=scenario, backend=backend)
    ledger = ReplicaLedger(k_eff)
    alive = [True] * n
    # Pseudo-rank n narrates the scenario schedule alongside the real
    # ranks' dump/repair spans (its spans are no-ops at phase level).
    driver = Trace(rank=n, level="span" if collect_trace else "phase")
    system = system_for(scenario)(
        scenario, backend,
        scenario.dump_config(trace_level="span" if collect_trace else None),
        ledger, driver if collect_trace else None,
    )
    cluster = system.cluster
    all_reports: List[List] = []

    def arm_crash(crash: Optional[MidDumpCrash]):
        """``(crash, phase_hook)`` for a dump being submitted now — both
        None unless the victim is alive at this moment.  A system calls
        this when it *submits* a dump, because the service judges
        liveness at submission and the other two at execution."""
        if crash is None or not alive[crash.node]:
            return None, None
        return crash, FailureInjector(cluster).mid_dump_hook(
            crash.node, crash.phase, rank=crash.node
        )

    def crash_step(step: Step, step_idx: int, step_doc: dict) -> None:
        was_alive = alive[step.node]
        step_doc["node"] = step.node
        step_doc["noop"] = not was_alive
        with driver.span("crash", node=step.node, noop=not was_alive):
            pass
        if was_alive:
            # Repeated crash of an already-dead node is a no-op: the
            # ledger must not be decremented twice for one death.
            cluster.fail_node(step.node)
            alive[step.node] = False
            ledger.record_death()

    def repair_step(step: Step, step_idx: int, step_doc: dict) -> None:
        with driver.span("repair"):
            report = system.repair()
            driver.annotate(
                chunks_moved=report.chunks_moved,
                manifests_moved=report.manifests_moved,
            )
        ledger.record_repair(cluster)
        step_doc["chunks_moved"] = report.chunks_moved
        step_doc["manifests_moved"] = report.manifests_moved

    def dump_step(step: Step, step_idx: int, step_doc: dict):
        snapshot = list(alive)
        with driver.span("dump-step"):
            dump_id, reports, crash = system.dump(
                step, step_idx, step_doc, arm_crash
            )
            driver.annotate(
                dump_id=dump_id,
                mid_dump_crash=crash.node if crash is not None else -1,
            )
        all_reports.append(reports)
        ledger.record_dump(dump_id, snapshot)
        if crash is not None:
            alive[crash.node] = False
            ledger.record_death()
        step_doc["dump_id"] = dump_id
        step_doc["reports"] = [_normalized_report(r) for r in reports]
        step_doc["invariants_checked"] += ["window-layout", "report-sanity"]
        found = inv.check_window_layout(step_idx, reports, k_eff, snapshot)
        found += inv.check_report_sanity(
            step_idx, reports,
            parity=scenario.redundancy == "parity", alive=snapshot,
        )
        if bug == "drop-replica":
            step_doc["bug"] = _inject_drop_replica(cluster)
        return found

    ops = {
        "crash": crash_step, "repair": repair_step, "dump": dump_step,
        **system.ops,
    }
    unknown = {step.op for step in scenario.steps} - ops.keys()
    if unknown:
        raise ScenarioError(
            f"{type(system).__name__} has no {sorted(unknown)} steps"
        )
    battery = system.battery()
    for step_idx, step in enumerate(scenario.steps):
        step_doc: dict = {"op": step.op, "invariants_checked": []}
        try:
            found = ops[step.op](step, step_idx, step_doc)
            result.violations += found or []
            for name, check in battery:
                step_doc["invariants_checked"].append(name)
                result.violations += check(step_idx)
        except Exception as exc:
            # The state a raised step leaves behind is undefined, so the
            # run stops here — as a normal failing result the caller can
            # record, shrink and replay, not as a lost sweep.
            log.debug("step %d (%s) raised", step_idx, step.op, exc_info=True)
            step_doc["error"] = type(exc).__name__
            result.violations.append(inv.Violation(
                "step-error", step_idx,
                f"{step.op} raised {type(exc).__name__}: "
                f"{(str(exc).splitlines() or [''])[0]}",
            ))
        step_doc["violations_so_far"] = len(result.violations)
        result.steps.append(step_doc)
        if "error" in step_doc:
            break

    result.cluster_digest = cluster_digest(cluster)
    result.reports_digest = reports_digest(all_reports)
    system.finish(result)
    if collect_trace:
        result.traces = merge_traces([*system.trace_sources, [driver]])
    return result


def differential_check(
    thread_result: FuzzResult, process_result: FuzzResult
) -> List[inv.Violation]:
    """Compare two backends' runs of the same scenario: cluster state,
    normalized reports and invariant verdicts must be identical."""
    out: List[inv.Violation] = []
    last = len(thread_result.scenario.steps) - 1
    if thread_result.cluster_digest != process_result.cluster_digest:
        out.append(inv.Violation(
            "differential", last,
            f"cluster digests diverge: thread "
            f"{thread_result.cluster_digest[:16]} vs process "
            f"{process_result.cluster_digest[:16]}",
        ))
    if thread_result.reports_digest != process_result.reports_digest:
        out.append(inv.Violation(
            "differential", last,
            f"dump report digests diverge: thread "
            f"{thread_result.reports_digest[:16]} vs process "
            f"{process_result.reports_digest[:16]}",
        ))
    thread_verdicts = [v.as_dict() for v in thread_result.violations]
    process_verdicts = [v.as_dict() for v in process_result.violations]
    if thread_verdicts != process_verdicts:
        out.append(inv.Violation(
            "differential", last,
            f"invariant verdicts diverge: thread found "
            f"{len(thread_verdicts)}, process found {len(process_verdicts)}",
        ))
    if thread_result.slo != process_result.slo:
        out.append(inv.Violation(
            "differential", last,
            "SLO verdicts diverge between backends (queue waits are "
            "logical ticks, so they must be backend-independent)",
        ))
    return out


def run_scenario(
    scenario: Scenario,
    backend: Optional[str] = None,
    bug: Optional[str] = None,
    collect_trace: bool = False,
) -> FuzzResult:
    """Execute a scenario, honouring its ``differential`` flag.

    With ``backend`` explicitly given, runs on exactly that backend.
    Otherwise runs on the thread backend — and, for a differential
    scenario, again on the process backend, appending any cross-backend
    divergence as ``differential`` violations on the returned (thread)
    result.
    """
    if backend is not None or not scenario.differential:
        return execute_scenario(
            scenario, backend=backend or "thread", bug=bug,
            collect_trace=collect_trace,
        )
    thread_result = execute_scenario(
        scenario, backend="thread", bug=bug, collect_trace=collect_trace
    )
    process_result = execute_scenario(scenario, backend="process", bug=bug)
    thread_result.violations += differential_check(
        thread_result, process_result
    )
    return thread_result
