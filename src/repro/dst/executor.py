"""Scenario executor: run a :class:`~repro.dst.scenario.Scenario` as a
dump→crash→repair→restore loop with the invariant battery after every step.

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.restore import verify_restorable
from repro.core.runner import run_collective
from repro.dst import invariants as inv
from repro.dst.scenario import Scenario, Step
from repro.storage.local_store import Cluster

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
    """
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown bug {bug!r}; expected one of {BUGS}")
    if scenario.chain:
        return _execute_chain_scenario(
            scenario, backend=backend, bug=bug, collect_trace=collect_trace
        )
    if scenario.tenants > 1:
        return _execute_svc_scenario(
            scenario, backend=backend, bug=bug, collect_trace=collect_trace
        )
    n = scenario.n_ranks
    k_eff = scenario.k_eff
    result = FuzzResult(scenario=scenario, backend=backend)
    cluster = Cluster(n, shard_count=scenario.shard_count)
    ledger = ReplicaLedger(k_eff)
    alive = [True] * n
    config = scenario.dump_config(
        trace_level="span" if collect_trace else None
    )
    fpcaches: Dict[int, object] = {}
    use_fpcache = (
        scenario.workload_mode == "repeat"
        and config.chunking == "fixed"
        and backend == "thread"
    )
    all_reports: List[List] = []
    trace_sources: List[object] = []
    driver_trace = None
    if collect_trace:
        from repro.simmpi.trace import Trace

        # Pseudo-rank n narrates the scenario schedule alongside the real
        # ranks' dump/repair spans.
        driver_trace = Trace(rank=n, level="span")

    def oracle(dump_id: int, rank: int) -> bytes:
        workload = scenario.make_workload(dump_id)
        return workload.build_dataset(rank, n).to_bytes()

    def run_checks(step_idx: int, checked: List[str]) -> List[inv.Violation]:
        found: List[inv.Violation] = []
        known = sorted({d for d, _r in ledger.floors})
        if scenario.redundancy == "parity":
            checked.append("parity-margin")
            found += inv.check_parity_margin(cluster, step_idx, k_eff)
            checked.append("restore")
            found += inv.check_restore(
                cluster, step_idx,
                {key: 1 for key in ledger.floors}, oracle,
            )
        else:
            checked.append("replication")
            found += inv.check_replication(cluster, step_idx, ledger.floors)
            checked.append("restore")
            found += inv.check_restore(
                cluster, step_idx, ledger.floors, oracle,
            )
            checked.append("audit-consistency")
            found += inv.check_audit_consistency(
                cluster, step_idx, known, ledger.floors
            )
        checked.append("referential-integrity")
        found += inv.check_referential_integrity(cluster, step_idx)
        return found

    dump_id = 0
    for step_idx, step in enumerate(scenario.steps):
        step_doc: dict = {"op": step.op}
        checked: List[str] = []
        if step.op == "tick":
            # Idle ticks model arrival gaps; without a service queue there
            # is no logical clock to advance, so they are pure no-ops.
            step_doc["noop"] = True
        elif step.op == "crash":
            was_alive = alive[step.node]
            step_doc["node"] = step.node
            step_doc["noop"] = not was_alive
            if driver_trace is not None:
                with driver_trace.span(
                    "crash", node=step.node, noop=not was_alive
                ):
                    pass
            if was_alive:
                # Repeated crash of an already-dead node is a no-op: the
                # ledger must not be decremented twice for one death.
                cluster.fail_node(step.node)
                alive[step.node] = False
                ledger.record_death()
        elif step.op == "repair":
            if driver_trace is not None:
                span_cm = driver_trace.span("repair")
                span_cm.__enter__()
            from repro.repair import repair_cluster

            report = repair_cluster(
                cluster, scenario.k, backend=backend
            )
            if driver_trace is not None:
                driver_trace.annotate(
                    chunks_moved=report.chunks_moved,
                    manifests_moved=report.manifests_moved,
                )
                span_cm.__exit__(None, None, None)
            ledger.record_repair(cluster)
            step_doc["chunks_moved"] = report.chunks_moved
            step_doc["manifests_moved"] = report.manifests_moved
        elif step.op == "dump":
            this_dump = dump_id
            snapshot = list(alive)
            workload = scenario.make_workload(this_dump)
            phase_hook = None
            crash = step.crash
            crash_fires = crash is not None and alive[crash.node]
            if crash_fires:
                from repro.storage.failures import FailureInjector

                injector = FailureInjector(cluster)
                phase_hook = injector.mid_dump_hook(
                    crash.node, crash.phase, rank=crash.node
                )
            n_dumped = sum(
                1 for s in scenario.steps[:step_idx] if s.op == "dump"
            )
            all_clean = use_fpcache and n_dumped > 0

            def rank_main(comm):
                dataset = workload.build_dataset(comm.rank, n)
                dirty = None
                fpc = None
                if use_fpcache:
                    from repro.core.fpcache import FingerprintCache

                    fpc = fpcaches.get(comm.rank)
                    if fpc is None:
                        fpc = fpcaches[comm.rank] = FingerprintCache(
                            config.chunk_size, config.effective_hash_name
                        )
                    if all_clean:
                        # "repeat" mode rewrites identical content, so
                        # declaring every segment clean is truthful.
                        dirty = [[] for _ in range(dataset.num_segments)]
                from repro.core.dump import dump_output

                return dump_output(
                    comm, dataset, config, cluster,
                    dump_id=this_dump, fpcache=fpc,
                    dirty_regions=dirty, phase_hook=phase_hook,
                )

            if driver_trace is not None:
                span_cm = driver_trace.span(
                    "dump-step", dump_id=this_dump,
                    mid_dump_crash=crash.node if crash_fires else -1,
                )
                span_cm.__enter__()
            reports, world = run_collective(
                n, rank_main, cluster=cluster, backend=backend
            )
            if driver_trace is not None:
                span_cm.__exit__(None, None, None)
            if collect_trace:
                trace_sources.append(world)
            all_reports.append(reports)
            ledger.record_dump(this_dump, snapshot)
            if crash_fires:
                alive[crash.node] = False
                ledger.record_death()
            step_doc["dump_id"] = this_dump
            step_doc["reports"] = [
                _normalized_report(r) for r in reports
            ]
            checked.append("window-layout")
            result.violations += inv.check_window_layout(
                step_idx, reports, k_eff, snapshot
            )
            checked.append("report-sanity")
            result.violations += inv.check_report_sanity(
                step_idx,
                reports,
                parity=scenario.redundancy == "parity",
                alive=snapshot,
            )
            dump_id += 1

        if bug == "drop-replica" and step.op == "dump":
            dropped = _inject_drop_replica(cluster)
            step_doc["bug"] = dropped

        result.violations += run_checks(step_idx, checked)
        step_doc["invariants_checked"] = checked
        step_doc["violations_so_far"] = len(result.violations)
        result.steps.append(step_doc)

    result.cluster_digest = cluster_digest(cluster)
    result.reports_digest = reports_digest(all_reports)
    if collect_trace:
        from repro.obs.export import merge_traces

        sources = list(trace_sources)
        if driver_trace is not None:
            sources.append([driver_trace])
        result.traces = merge_traces(sources)
    return result


def _execute_svc_scenario(
    scenario: Scenario,
    backend: str = "thread",
    bug: Optional[str] = None,
    collect_trace: bool = False,
) -> FuzzResult:
    """Run a multi-tenant scenario through :class:`repro.svc.CheckpointService`.

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
    from repro.obs.slo import SLOEngine
    from repro.svc.errors import ServiceError
    from repro.svc.service import CheckpointService

    n = scenario.n_ranks
    k_eff = scenario.k_eff
    result = FuzzResult(scenario=scenario, backend=backend)
    config = scenario.dump_config(
        trace_level="span" if collect_trace else None
    )
    service = CheckpointService(
        n, config=config, shard_count=scenario.shard_count,
        backend=backend, max_inflight=1,
    )
    service.attach_slo(SLOEngine(
        SVC_SLO_OBJECTIVES, windows=SVC_SLO_WINDOWS,
        min_samples=SVC_SLO_MIN_SAMPLES,
    ))
    cluster = service.cluster
    ledger = ReplicaLedger(k_eff)
    alive = [True] * n
    tenant_names = [f"t{i}" for i in range(scenario.tenants)]
    for name in tenant_names:
        service.register_tenant(name)
    #: tenant name -> live (tenant_dump_id, global_dump_id), oldest first
    live_dumps: Dict[str, List[Tuple[int, int]]] = {
        name: [] for name in tenant_names
    }
    #: global dump id -> (tenant index, scenario dump index), for the oracle
    dump_meta: Dict[int, Tuple[int, int]] = {}
    all_reports: List[List] = []

    def oracle(dump_id: int, rank: int) -> bytes:
        tenant_idx, scenario_dump = dump_meta[dump_id]
        workload = scenario.make_workload(scenario_dump, tenant=tenant_idx)
        return workload.build_dataset(rank, n).to_bytes()

    def run_checks(step_idx: int, checked: List[str]) -> List[inv.Violation]:
        found: List[inv.Violation] = []
        checked.append("replication")
        found += inv.check_replication(cluster, step_idx, ledger.floors)
        checked.append("restore")
        found += inv.check_restore(
            cluster, step_idx, ledger.floors, oracle,
        )
        checked.append("audit-consistency")
        known = sorted({d for d, _r in ledger.floors})
        found += inv.check_audit_consistency(
            cluster, step_idx, known, ledger.floors
        )
        checked.append("referential-integrity")
        found += inv.check_referential_integrity(cluster, step_idx)
        checked.append("tenant-isolation")
        found += inv.check_tenant_isolation(service, step_idx)
        checked.append("cross-tenant-accounting")
        found += inv.check_cross_tenant_accounting(service, step_idx)
        checked.append("slo-determinism")
        found += inv.check_slo_determinism(service, step_idx)
        return found

    bursty = scenario.arrival == "bursty"
    #: ticket -> (tenant index, scenario dump index, crash that will fire)
    pending_meta: Dict[int, Tuple[int, int, Optional[object]]] = {}
    submit_dump_index = 0  # scenario dump index of the next submission
    next_submit_idx = 0  # first step index whose dump is not yet submitted

    def submit_run(start_idx: int) -> int:
        """Submit the dump at ``start_idx`` — and, under bursty arrival,
        every consecutive dump step after it (the burst).  Mid-dump crash
        liveness is judged at submission: a burst has no crash/repair
        steps inside it and the generator never targets one node twice,
        so run-start liveness is execution-time liveness for every victim.
        Returns the first step index past the submitted stretch.
        """
        nonlocal submit_dump_index
        j = start_idx
        while j < len(scenario.steps) and scenario.steps[j].op == "dump":
            s = scenario.steps[j]
            workload = scenario.make_workload(
                submit_dump_index, tenant=s.tenant
            )
            phase_hook = None
            crash = s.crash if (
                s.crash is not None and alive[s.crash.node]
            ) else None
            if crash is not None:
                from repro.storage.failures import FailureInjector

                injector = FailureInjector(cluster)
                phase_hook = injector.mid_dump_hook(
                    crash.node, crash.phase, rank=crash.node
                )
            ticket = service.submit(
                tenant_names[s.tenant], workload, phase_hook=phase_hook
            )
            pending_meta[ticket] = (s.tenant, submit_dump_index, crash)
            submit_dump_index += 1
            j += 1
            if not bursty:
                break
        return j

    for step_idx, step in enumerate(scenario.steps):
        step_doc: dict = {"op": step.op}
        checked: List[str] = []
        if step.op == "tick":
            service.tick_idle()
            step_doc["tick"] = service.tick
        elif step.op == "crash":
            was_alive = alive[step.node]
            step_doc["node"] = step.node
            step_doc["noop"] = not was_alive
            if was_alive:
                cluster.fail_node(step.node)
                alive[step.node] = False
                ledger.record_death()
        elif step.op == "repair":
            report = service.repair()
            ledger.record_repair(cluster)
            step_doc["chunks_moved"] = report.chunks_moved
            step_doc["manifests_moved"] = report.manifests_moved
        elif step.op == "dump":
            if step_idx >= next_submit_idx:
                next_submit_idx = submit_run(step_idx)
            snapshot = list(alive)
            outcomes = service.step()
            # One dump executes per tick (max_inflight=1); under bursty
            # arrival the admission queue's round-robin may execute a
            # different tenant's dump than this step submitted, so the
            # outcome's own ticket keys the bookkeeping.
            outcome = outcomes[0]
            tenant_idx, this_dump_index, crash = pending_meta.pop(
                outcome.ticket
            )
            name = outcome.tenant
            global_id = outcome.global_dump_id
            dump_meta[global_id] = (tenant_idx, this_dump_index)
            live_dumps[name].append((outcome.tenant_dump_id, global_id))
            all_reports.append(outcome.reports)
            ledger.record_dump(global_id, snapshot)
            if crash is not None:
                alive[crash.node] = False
                ledger.record_death()
            step_doc["dump_id"] = global_id
            step_doc["tenant"] = name
            step_doc["wait_ticks"] = outcome.wait_ticks
            step_doc["reports"] = [
                _normalized_report(r) for r in outcome.reports
            ]
            checked.append("window-layout")
            result.violations += inv.check_window_layout(
                step_idx, outcome.reports, k_eff, snapshot
            )
            checked.append("report-sanity")
            result.violations += inv.check_report_sanity(
                step_idx, outcome.reports,
                parity=False, alive=snapshot,
            )
        elif step.op == "gc":
            name = tenant_names[step.tenant]
            step_doc["tenant"] = name
            if not live_dumps[name]:
                step_doc["noop"] = True
            else:
                tenant_dump_id, global_id = live_dumps[name].pop(0)
                gc_outcome = service.gc(name, tenant_dump_id)
                for rank in range(n):
                    ledger.floors.pop((global_id, rank), None)
                step_doc["dump_id"] = global_id
                step_doc["chunks_dropped"] = gc_outcome.chunks_dropped
                step_doc["chunks_retained"] = gc_outcome.chunks_retained
                step_doc["retained_cross_tenant"] = (
                    gc_outcome.retained_cross_tenant
                )
                try:
                    service.restore(name, 0, tenant_dump_id)
                except ServiceError:
                    pass
                else:
                    result.violations.append(inv.Violation(
                        "tenant-isolation", step_idx,
                        f"tenant {name!r} restored dump {tenant_dump_id} "
                        f"after garbage-collecting it",
                    ))

        if bug == "drop-replica" and step.op == "dump":
            dropped = _inject_drop_replica(cluster)
            step_doc["bug"] = dropped

        result.violations += run_checks(step_idx, checked)
        step_doc["invariants_checked"] = checked
        step_doc["violations_so_far"] = len(result.violations)
        result.steps.append(step_doc)

    result.cluster_digest = cluster_digest(cluster)
    result.reports_digest = reports_digest(all_reports)
    result.slo = service.slo.verdict(service.timeline)
    if collect_trace:
        from repro.obs.export import merge_traces

        result.traces = merge_traces([[service.trace]])
    return result


def _execute_chain_scenario(
    scenario: Scenario,
    backend: str = "thread",
    bug: Optional[str] = None,
    collect_trace: bool = False,
) -> FuzzResult:
    """Run a chain scenario through :class:`repro.chain.ChainManager`.

    Dumps flow through ``chain_dump`` (mostly deltas over an
    epoch-evolving :class:`~repro.apps.mutating.MutatingWorkload`),
    ``prune`` retires the oldest live non-tip epoch, ``compact`` rewrites
    the tip into a synthetic full, and crashes/repairs behave exactly as
    in the base loop.  The per-dump replica ledger keeps working on
    physical dump ids (a delta's manifests list only its own chunks —
    precisely what its floors protect); compaction migrates the old dump
    id's floors to the new id at the *effective* (path-minimum) level and
    sweeps pop the floors of dropped epochs.

    On top of the base battery (minus the per-dump restore check — a
    chain delta is not independently restorable by design, and the typed
    rejection has its own regression suite) the step loop arms the three
    chain oracles: structural integrity, refcount conservation and
    restore-to-any-epoch byte-equality against the per-epoch workload
    oracle under the effective floor.

    With ``collect_trace`` the manager's ``chain-*`` spans land on the
    driver pseudo-rank; per-rank collective traces stay inside the
    manager's dumps and are not collected.
    """
    from repro.chain import ChainManager

    n = scenario.n_ranks
    k_eff = scenario.k_eff
    result = FuzzResult(scenario=scenario, backend=backend)
    cluster = Cluster(n, shard_count=scenario.shard_count)
    config = scenario.dump_config(
        trace_level="span" if collect_trace else None
    )
    driver_trace = None
    if collect_trace:
        from repro.simmpi.trace import Trace

        driver_trace = Trace(rank=n, level="span")
    manager = ChainManager(
        cluster, config, n, backend=backend, trace=driver_trace
    )
    ledger = ReplicaLedger(k_eff)
    alive = [True] * n
    workload = scenario.make_chain_workload()
    all_reports: List[List] = []

    def oracle(epoch: int, rank: int) -> bytes:
        return workload.at_epoch(epoch).build_dataset(rank, n).to_bytes()

    def effective_floors() -> Dict[Tuple[int, int], int]:
        """Per live ``(epoch, rank)``: the minimum replica floor over
        every dump on the epoch's ancestor path — losing any ancestor
        below its floor breaks every descendant's time travel."""
        floors: Dict[Tuple[int, int], int] = {}
        for epoch in manager.live_epochs():
            path = manager.path_of(epoch)
            for rank in range(n):
                floors[(epoch, rank)] = min(
                    ledger.floors.get((node.dump_id, rank), 0)
                    for node in path
                )
        return floors

    def pop_floors(dump_ids) -> None:
        for did in dump_ids:
            for rank in range(n):
                ledger.floors.pop((did, rank), None)

    def run_checks(step_idx: int, checked: List[str]) -> List[inv.Violation]:
        found: List[inv.Violation] = []
        checked.append("replication")
        found += inv.check_replication(cluster, step_idx, ledger.floors)
        checked.append("audit-consistency")
        known = sorted({d for d, _r in ledger.floors})
        found += inv.check_audit_consistency(
            cluster, step_idx, known, ledger.floors
        )
        checked.append("referential-integrity")
        found += inv.check_referential_integrity(cluster, step_idx)
        checked.append("chain-structure")
        found += inv.check_chain_structure(manager, step_idx)
        checked.append("chain-refcounts")
        found += inv.check_chain_refcounts(manager, step_idx)
        checked.append("chain-restore")
        found += inv.check_chain_restore(
            manager, step_idx, effective_floors(), oracle,
        )
        return found

    for step_idx, step in enumerate(scenario.steps):
        step_doc: dict = {"op": step.op}
        checked: List[str] = []
        if step.op == "tick":
            step_doc["noop"] = True
        elif step.op == "crash":
            was_alive = alive[step.node]
            step_doc["node"] = step.node
            step_doc["noop"] = not was_alive
            if driver_trace is not None:
                with driver_trace.span(
                    "crash", node=step.node, noop=not was_alive
                ):
                    pass
            if was_alive:
                cluster.fail_node(step.node)
                alive[step.node] = False
                ledger.record_death()
        elif step.op == "repair":
            from repro.repair import repair_cluster

            report = repair_cluster(cluster, scenario.k, backend=backend)
            ledger.record_repair(cluster)
            step_doc["chunks_moved"] = report.chunks_moved
            step_doc["manifests_moved"] = report.manifests_moved
        elif step.op == "dump":
            target_epoch = manager.next_epoch
            if target_epoch > workload.epoch:
                workload.advance(target_epoch - workload.epoch)
            snapshot = list(alive)
            phase_hook = None
            crash = step.crash
            crash_fires = crash is not None and alive[crash.node]
            if crash_fires:
                from repro.storage.failures import FailureInjector

                injector = FailureInjector(cluster)
                phase_hook = injector.mid_dump_hook(
                    crash.node, crash.phase, rank=crash.node
                )
            dump_res = manager.chain_dump(
                workload, kind=step.kind, phase_hook=phase_hook
            )
            all_reports.append(list(dump_res.reports))
            ledger.record_dump(dump_res.dump_id, snapshot)
            if crash_fires:
                alive[crash.node] = False
                ledger.record_death()
            step_doc["epoch"] = dump_res.epoch
            step_doc["dump_id"] = dump_res.dump_id
            step_doc["kind"] = dump_res.kind
            step_doc["promoted"] = dump_res.promoted
            step_doc["changed_chunks"] = dump_res.changed_chunks
            step_doc["total_chunks"] = dump_res.total_chunks
            step_doc["reports"] = [
                _normalized_report(r) for r in dump_res.reports
            ]
            checked.append("window-layout")
            result.violations += inv.check_window_layout(
                step_idx, dump_res.reports, k_eff, snapshot
            )
            checked.append("report-sanity")
            result.violations += inv.check_report_sanity(
                step_idx, dump_res.reports, parity=False, alive=snapshot,
            )
        elif step.op == "prune":
            live = manager.live_epochs()
            if len(live) < 2:
                # Never collect the tip: time travel to *somewhere* must
                # survive every schedule the generator draws.
                step_doc["noop"] = True
            else:
                victim = live[0]
                ids_before = {
                    e: node.dump_id for e, node in manager.nodes.items()
                }
                gc_res = manager.prune(victim)
                pop_floors(ids_before[e] for e in gc_res.swept_epochs)
                step_doc["epoch"] = victim
                step_doc["chunks_dropped"] = gc_res.chunks_dropped
                step_doc["bytes_freed"] = gc_res.bytes_freed
                step_doc["pinned"] = gc_res.pinned
                step_doc["swept_epochs"] = list(gc_res.swept_epochs)
        elif step.op == "compact":
            live = manager.live_epochs()
            tip_epoch = live[-1] if live else None
            tip = manager.nodes[tip_epoch] if tip_epoch is not None else None
            if tip is None or (
                tip.kind == "full" and tip.parent_epoch is None
            ):
                step_doc["noop"] = True
            else:
                ids_before = {
                    e: node.dump_id for e, node in manager.nodes.items()
                }
                # The synthetic full inherits ancestors' chunks, so its
                # floor is only as good as the weakest dump on the path.
                eff = {
                    rank: min(
                        ledger.floors.get((node.dump_id, rank), 0)
                        for node in manager.path_of(tip_epoch)
                    )
                    for rank in range(n)
                }
                compact_res = manager.compact(tip_epoch)
                for rank in range(n):
                    ledger.floors.pop(
                        (compact_res.old_dump_id, rank), None
                    )
                    ledger.floors[
                        (compact_res.new_dump_id, rank)
                    ] = eff[rank]
                pop_floors(
                    ids_before[e] for e in compact_res.swept_epochs
                )
                step_doc["epoch"] = tip_epoch
                step_doc["old_dump_id"] = compact_res.old_dump_id
                step_doc["new_dump_id"] = compact_res.new_dump_id
                step_doc["swept_epochs"] = list(compact_res.swept_epochs)

        if bug == "drop-replica" and step.op == "dump":
            dropped = _inject_drop_replica(cluster)
            step_doc["bug"] = dropped

        result.violations += run_checks(step_idx, checked)
        step_doc["invariants_checked"] = checked
        step_doc["violations_so_far"] = len(result.violations)
        result.steps.append(step_doc)

    result.cluster_digest = cluster_digest(cluster)
    result.reports_digest = reports_digest(all_reports)
    if collect_trace:
        from repro.obs.export import merge_traces

        result.traces = merge_traces([[driver_trace]])
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
