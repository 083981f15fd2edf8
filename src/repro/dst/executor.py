"""Scenario executor: one step interpreter runs a
:class:`~repro.dst.scenario.Scenario` as a dump→crash→repair→restore loop
over the checkpoint service, where production runs every dump, with the
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
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.restore import verify_restorable
from repro.dst import invariants as inv
from repro.dst.scenario import MidDumpCrash, Scenario, ScenarioError, Step
from repro.obs.export import merge_traces
from repro.obs.slo import SLOEngine
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

#: SLO configuration armed on every scenario.  Queue-wait
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
    #: the service SLO engine's deterministic verdict (tick-based, so it
    #: joins the byte-equality contract)
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
    doc = [[asdict(r) for r in reports] for reports in all_reports]
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class ServiceSystem:
    """What the step loop drives: :class:`repro.svc.CheckpointService`, the
    one dump model production runs, in which every dump is an epoch of its
    tenant's chain.

    The system owns what the loop leaves open: how the cluster is built,
    what a dump is (and which step-document fields it adds), who repairs,
    the ordered invariant battery, and the step kinds beyond
    ``dump``/``crash``/``repair`` it understands (:attr:`ops`: ``op ->
    handler(step, step_idx, step_doc)``, which may return violations).  Of
    the loop's state it sees only the ledger and the ``arm_crash`` helper
    passed to :meth:`dump`.

    The tenants are ``t0``, ``t1``, ….  A chain scenario's tenants each dump
    one epoch-evolving :class:`~repro.apps.mutating.MutatingWorkload` (the
    k-th submission is epoch k, a ``full`` or a ``delta``); otherwise every
    dump is a full of the seeded synthetic workload, ``make_workload(k)``
    for the scenario's k-th dump: in ``repeat`` mode the same content each
    time, under ``redundancy="parity"`` a parity full.  ``gc`` and
    ``prune`` retire the tenant's oldest live dump, ``compact`` rewrites its
    newest into a synthetic full.

    Dumps route through the admission queue, one per tick: under ``steady``
    arrival the schedule is the scenario's step order, ``bursty`` arrival
    submits every dump of a consecutive-dump run up front (later ones queue
    behind earlier ones, so the armed queue-wait SLO sees real burn) and
    ``tick`` steps advance the clock idly between bursts.

    The replica ledger works on *global* dump ids, the manifest keys the
    service writes (a delta's manifests list only its own chunks, exactly
    what its floors protect): compaction migrates the old id's floors to
    the new id at the *effective* (path-minimum) level, swept dumps stop
    owing replicas, pinned ones keep owing them.

    The battery holds the cluster oracles (replica floors and audit
    consistency, or the parity margin; referential integrity), the service
    oracles (tenant isolation, cross-tenant accounting, SLO determinism: a
    fresh engine replayed over the timeline reproduces the live alerts) and
    the chain oracles: structure, refcount conservation over every chain
    sharing the index, and restore-to-any-epoch equality with what each
    ``(tenant, epoch)`` dumped, under the effective floor.
    """

    def __init__(
        self, scenario: Scenario, backend: str, config, ledger: ReplicaLedger,
    ) -> None:
        self.scenario = scenario
        self.ledger = ledger
        self.n = scenario.n_ranks
        self.service = service = CheckpointService(
            self.n, config=config, backend=backend,
            shard_count=scenario.shard_count, max_inflight=1,
        )
        service.attach_slo(SLOEngine(
            SVC_SLO_OBJECTIVES, windows=SVC_SLO_WINDOWS,
            min_samples=SVC_SLO_MIN_SAMPLES,
        ))
        self.cluster = service.cluster
        #: trace lists merged into ``result.traces``: the service's own,
        #: then every dump's per-rank traces
        self.trace_sources: List[object] = [[service.trace]]
        #: every tenant's chain; ``chain.owner`` is the tenant's name
        self.chains = [
            service.register_tenant(f"t{i}").chain
            for i in range(scenario.tenants)
        ]
        #: tenant name -> epoch -> the workload it dumped: the byte oracle
        self.dumped: Dict[str, Dict[int, object]] = {
            chain.owner: {} for chain in self.chains
        }
        #: ticket -> (workload, crash that will fire)
        self.pending: Dict[int, Tuple[object, Optional[object]]] = {}
        # Exactly the step kinds Scenario validation admits for the mode.
        self.ops: Dict[str, Callable] = {"tick": self.tick}
        if scenario.tenants > 1:
            self.ops["gc"] = self.collect
        if scenario.chain:
            self.ops.update(prune=self.collect, compact=self.compact)

    def tick(self, step: Step, step_idx: int, step_doc: dict) -> None:
        self.service.tick_idle()
        step_doc["tick"] = self.service.tick

    def repair(self):
        return self.service.repair()

    def submit_run(self, start_idx: int, arm_crash) -> None:
        """Submit the dump at ``start_idx`` — and, under bursty arrival,
        every consecutive dump step after it (the burst).  Mid-dump crash
        liveness is judged at submission: a burst has no crash/repair
        steps inside it and the generator never targets one node twice,
        so run-start liveness is execution-time liveness for every victim.
        """
        steps = self.scenario.steps
        j = start_idx
        while j < len(steps) and steps[j].op == "dump":
            s = steps[j]
            earlier = [st for st in steps[:j] if st.op == "dump"]
            if self.scenario.chain:
                # The tenant's k-th dump is epoch k of its evolving
                # workload, a snapshot each: a burst queues several epochs
                # of one tenant before any of them runs.
                workload = self.scenario.make_chain_workload(
                    s.tenant, sum(st.tenant == s.tenant for st in earlier)
                )
            else:
                workload = self.scenario.make_workload(
                    len(earlier), tenant=s.tenant
                )
            crash, phase_hook = arm_crash(s.crash)
            ticket = self.service.submit(
                self.chains[s.tenant].owner, workload,
                phase_hook=phase_hook, kind=s.kind,
            )
            self.pending[ticket] = (workload, crash)
            j += 1
            if self.scenario.arrival != "bursty":
                break

    def dump(self, step: Step, step_idx: int, step_doc: dict, arm_crash):
        """Run one dump; returns ``(dump_id, reports, crash_that_fired)``."""
        if not self.pending:  # else this step's dump went in with its burst
            self.submit_run(step_idx, arm_crash)
        # One dump executes per tick (max_inflight=1); under bursty
        # arrival the admission queue's round-robin may execute a
        # different tenant's dump than this step submitted, so the
        # outcome's own ticket keys the bookkeeping.
        outcome = self.service.step()[0]
        workload, crash = self.pending.pop(outcome.ticket)
        self.dumped[outcome.tenant][outcome.tenant_dump_id] = workload
        self.trace_sources.append(outcome.traces)
        step_doc["epoch"] = outcome.tenant_dump_id
        for name in ("tenant", "wait_ticks", "kind", "promoted",
                     "changed_chunks", "total_chunks"):
            step_doc[name] = getattr(outcome, name)
        return outcome.global_dump_id, outcome.reports, crash

    def pop_floors(self, dump_ids) -> None:
        """Dumps that were collected on purpose no longer owe replicas."""
        for did in dump_ids:
            for rank in range(self.n):
                self.ledger.floors.pop((did, rank), None)

    def path_floors(self, chain, epoch: int) -> Dict[Tuple[int, int], int]:
        """``(epoch, rank)`` -> the minimum replica floor over every dump on
        the epoch's ancestor path: losing any ancestor below its floor
        breaks every descendant's time travel."""
        floors, path = self.ledger.floors, chain.path_of(epoch)
        return {
            (epoch, rank): min(
                floors.get((node.dump_id, rank), 0) for node in path
            )
            for rank in range(self.n)
        }

    def collect(self, step: Step, step_idx: int, step_doc: dict):
        """``gc`` and ``prune``: retire the tenant's oldest live dump;
        ``prune`` never its last, so time travel to *somewhere* survives
        every chain schedule and no later full lands on a store GC emptied
        (DESIGN.md "dst: one interpreter, one system")."""
        chain = self.chains[step.tenant]
        tenant = step_doc["tenant"] = chain.owner
        live = chain.live_epochs()
        if len(live) <= (step.op == "prune"):
            step_doc["noop"] = True
            return None
        victim = live[0]
        ids_before = {e: node.dump_id for e, node in chain.nodes.items()}
        outcome = self.service.gc(tenant, victim)
        # A pinned dump stays in the chain and keeps owing its replicas.
        swept = sorted(ids_before.keys() - chain.nodes.keys())
        self.pop_floors(ids_before[e] for e in swept)
        step_doc.update(
            epoch=victim, dump_id=outcome.global_dump_id,
            chunks_dropped=outcome.chunks_dropped,
            chunks_retained=outcome.chunks_retained,
            retained_cross_tenant=outcome.retained_cross_tenant,
            bytes_freed=outcome.bytes_reclaimed, pinned=outcome.pinned,
            swept_epochs=swept,
        )
        try:
            self.service.restore(tenant, 0, victim)
        except ServiceError:
            return None
        return [inv.Violation(
            "tenant-isolation", step_idx,
            f"tenant {tenant!r} restored dump {victim} "
            f"after garbage-collecting it",
        )]

    def compact(self, step: Step, step_idx: int, step_doc: dict) -> None:
        chain = self.chains[step.tenant]
        tenant = step_doc["tenant"] = chain.owner
        tip = chain.tip()
        if tip is None or (tip.kind == "full" and tip.parent_epoch is None):
            step_doc["noop"] = True
            return
        ids_before = {e: node.dump_id for e, node in chain.nodes.items()}
        # The synthetic full inherits ancestors' chunks, so its
        # floor is only as good as the weakest dump on the path.
        eff = self.path_floors(chain, tip.epoch)
        outcome = self.service.compact(tenant, tip.epoch)
        self.pop_floors([outcome.old_dump_id])
        for rank in range(self.n):
            self.ledger.floors[(outcome.new_dump_id, rank)] = eff[
                (tip.epoch, rank)
            ]
        self.pop_floors(ids_before[e] for e in outcome.swept_epochs)
        step_doc.update(
            epoch=tip.epoch, old_dump_id=outcome.old_dump_id,
            new_dump_id=outcome.new_dump_id,
            swept_epochs=list(outcome.swept_epochs),
        )

    def pins(self) -> tuple:
        """``(pinned dump ids, index)``: the retired chain epochs."""
        return {
            node.dump_id for chain in self.chains
            for node in chain.nodes.values() if node.retired
        }, self.service.index

    def chain_restore(self, step_idx: int) -> List[inv.Violation]:
        out: List[inv.Violation] = []
        for chain in self.chains:
            dumped = self.dumped[chain.owner]
            floors: Dict[Tuple[int, int], int] = {}
            for epoch in chain.live_epochs():
                floors.update(self.path_floors(chain, epoch))
            out += inv.check_chain_restore(
                chain, step_idx, floors, lambda epoch, rank: (
                    dumped[epoch].build_dataset(rank, self.n).to_bytes()
                ),
            )
        return out

    def battery(self) -> List[tuple]:
        """The ``(verdict name, check(step_idx) -> violations)`` pairs armed
        after every step, in verdict order."""
        cluster, floors = self.cluster, self.ledger.floors
        service, chains = self.service, self.chains
        checks = [
            ("parity-margin", lambda i: inv.check_parity_margin(
                cluster, i, self.scenario.k_eff
            )),
            ("replication", lambda i: inv.check_replication(
                cluster, i, floors
            )),
            ("audit-consistency", lambda i: inv.check_audit_consistency(
                cluster, i, sorted({d for d, _r in floors}), floors
            )),
            ("referential-integrity", lambda i: (
                inv.check_referential_integrity(cluster, i, *self.pins())
            )),
            ("tenant-isolation",
             lambda i: inv.check_tenant_isolation(service, i)),
            ("cross-tenant-accounting",
             lambda i: inv.check_cross_tenant_accounting(service, i)),
            ("slo-determinism",
             lambda i: inv.check_slo_determinism(service, i)),
            ("chain-structure", lambda i: [
                found for chain in chains
                for found in inv.check_chain_structure(chain, i)
            ]),
            ("chain-refcounts",
             lambda i: inv.check_chain_refcounts(chains, i)),
            ("chain-restore", self.chain_restore),
        ]
        # Parity keeps shards, not replicas: its margin check stands in
        # for the two replica-count oracles.
        unarmed = (
            ("replication", "audit-consistency")
            if self.scenario.redundancy == "parity" else ("parity-margin",)
        )
        return [check for check in checks if check[0] not in unarmed]

    def finish(self, result: FuzzResult) -> None:
        result.slo = self.service.slo.verdict(self.service.timeline)


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

    This is the one step loop.  It owns what does not depend on the
    service (liveness and the :class:`ReplicaLedger`, ``crash``,
    ``repair``, arming a mid-dump crash, the dump tail, the battery, the
    digests, the driver pseudo-rank); what a dump, a tick or a ``gc`` is
    belongs to the system (see :class:`ServiceSystem`).  A step or a check
    that raises is a finding, not a traceback: one ``step-error``
    violation, and the run ends there.
    """
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown bug {bug!r}; expected one of {BUGS}")
    n = scenario.n_ranks
    k_eff = scenario.k_eff
    result = FuzzResult(scenario=scenario, backend=backend)
    ledger = ReplicaLedger(k_eff)
    alive = [True] * n
    # Pseudo-rank n narrates the scenario schedule alongside the real
    # ranks' dump spans (its spans are no-ops at phase level).
    driver = Trace(rank=n, level="span" if collect_trace else "phase")
    system = ServiceSystem(
        scenario, backend,
        scenario.dump_config(trace_level="span" if collect_trace else None),
        ledger,
    )
    cluster = system.cluster
    all_reports: List[List] = []

    def arm_crash(crash: Optional[MidDumpCrash]):
        """``(crash, phase_hook)`` for a dump being submitted now — both
        None unless the victim is alive at this moment.  The system calls
        this when it *submits* a dump, because the service judges
        liveness at submission."""
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
        step_doc["reports"] = [asdict(r) for r in reports]
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
    thread, process = thread_result, process_result
    found = (len(thread.violations), len(process.violations))
    diverged = (
        (thread.cluster_digest != process.cluster_digest,
         f"cluster digests diverge: thread {thread.cluster_digest[:16]} "
         f"vs process {process.cluster_digest[:16]}"),
        (thread.reports_digest != process.reports_digest,
         f"dump report digests diverge: thread "
         f"{thread.reports_digest[:16]} vs process "
         f"{process.reports_digest[:16]}"),
        ([v.as_dict() for v in thread.violations]
         != [v.as_dict() for v in process.violations],
         f"invariant verdicts diverge: thread found {found[0]}, "
         f"process found {found[1]}"),
        (thread.slo != process.slo,
         "SLO verdicts diverge between backends (queue waits are "
         "logical ticks, so they must be backend-independent)"),
    )
    last = len(thread.scenario.steps) - 1
    return [
        inv.Violation("differential", last, detail)
        for differs, detail in diverged if differs
    ]


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
