"""The six workloads.

Every workload times the same three operations — dumps, then cycles of a
repair after a node is replaced by a blank one and a few restores — so each
reports every end-to-end metric; what differs is the configuration, and with
it the layer that bounds the dump.  ``README.md`` says why each one exists.

Inputs come from ``--seed`` through the program's own workload generators;
the program under test sees only the generated datasets.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.mutating import MutatingWorkload
from repro.apps.synthetic import SyntheticWorkload
from repro.chain import ChainManager
from repro.core import (
    Dataset,
    DumpConfig,
    Strategy,
    dump_output,
    load_input,
    restore_dataset,
    run_collective,
)
from repro.repair import plan_repair, repair_cluster, scan_cluster
from repro.storage import Cluster
from repro.svc import CheckpointService, GlobalDedupIndex, TenantWorkload

from bench import layers
from bench.harness import PHASES, Run, Spans, gc_paused, tail

#: share of ``--seconds`` by which each time-boxed section ends
DUMPS_UNTIL, CYCLES_UNTIL = 0.5, 1.0
#: timed restores after each repair, so that restore samples span the whole
#: second half of the run and not one short window of it
RESTORES_PER_CYCLE = 3


def same_bytes(got: Sequence[Dataset], want: Sequence[Dataset]) -> bool:
    """Byte equality of two dataset lists, segment by segment, no copies."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a.segment_lengths != b.segment_lengths:
            return False
        for i in range(a.num_segments):
            if not np.array_equal(
                np.frombuffer(a.segment(i), dtype=np.uint8),
                np.frombuffer(b.segment(i), dtype=np.uint8),
            ):
                return False
    return True


def spmd_dump(datasets, config, cluster, backend=None, marks=None, dump_id=0):
    """One collective dump of ``datasets``; per-rank reports.  When
    ``marks`` is a dict the dump is traced: the program's span level is on
    and each rank's phase entries land in ``marks[rank]``."""
    if marks is not None:
        config = config.with_(trace_level="span")

    def program(comm, cluster):
        entered = []
        hook = None
        if marks is not None:
            hook = lambda phase, rank: entered.append((phase, time.perf_counter()))
        report = dump_output(
            comm, datasets[comm.rank], config, cluster,
            dump_id=dump_id, phase_hook=hook,
        )
        return report, entered

    results, _world = run_collective(
        len(datasets), program, cluster, cluster=cluster, backend=backend
    )
    if marks is not None:
        for rank, (_report, entered) in enumerate(results):
            marks[rank] = entered
    return [report for report, _entered in results]


def replace_node(cluster: Cluster, node_id: int) -> None:
    """The node dies and a blank replacement takes its place."""
    cluster.fail_node(node_id)
    node = cluster.nodes[node_id]
    node.chunks.clear()
    for rank, dump_id in node.manifest_keys():
        node.drop_manifest(rank, dump_id)
    node.alive = True


class Workload:
    """Shared shape of a workload; subclasses fill in the configuration and
    the three operations."""

    name = ""
    n = 4
    k = 3
    strategy = Strategy.COLL_DEDUP
    chunk_size = 4096
    #: bytes per rank at full size; ``--smoke`` divides it by 16
    rank_bytes = 16 << 20
    backend: Optional[str] = None
    dedup = True
    shard_count = 1
    #: exact number of dumps for workloads whose state grows with each one
    #: (their exact-count metrics must not depend on the host's speed)
    fixed_dumps: Optional[int] = None

    def __init__(self, run: Run) -> None:
        self.run = run
        self.rank_bytes = self.rank_bytes // (16 if run.smoke else 1)
        self.config = DumpConfig(
            replication_factor=self.k,
            chunk_size=self.chunk_size,
            strategy=self.strategy,
        )
        self.cluster: Optional[Cluster] = None
        self.datasets: List[Dataset] = []
        #: logical bytes of one dump call / dumped into the current cluster
        self.logical_bytes = 0
        self.cluster_logical = 0
        self.sent = self.dumped = 0
        self.received = [0] * self.n
        self.stored_frac = 0.0
        self.second_pass_bytes = 0
        #: where a traced chain/svc dump records its phase entries
        self.marks: Optional[Dict[int, list]] = None
        #: the layer walk's self seconds per span name
        self.walk_self: Dict[str, float] = {}
        #: share of the walk's wall that lies inside a layer span
        self.walk_coverage = 0.0
        self.facts: Dict[str, object] = {}

    # -- operations subclasses provide --------------------------------------------
    def setup(self) -> None:
        """Materialise the inputs and fixtures and run one warm-up rep."""
        raise NotImplementedError

    def before_dump(self, i: int) -> None:
        """Untimed application work between two dumps."""

    def dump_once(self, marks):
        """The workload's timed dump call; per-rank ``DumpReport`` list."""
        self.cluster = Cluster(self.n, dedup=self.dedup)
        self.cluster_logical = self.logical_bytes
        return spmd_dump(self.datasets, self.config, self.cluster, self.backend, marks)

    def after_dump(self, i: int) -> None:
        """Extra untimed-for-e2e dumps a traced run compares against."""

    def before_restores(self) -> None:
        """Once, when the dumps are done."""

    def node_down(self) -> None:
        """A failure the timed restores run under, if any."""

    def restore_once(self) -> List[Dataset]:
        """The workload's timed restore call: every rank's dataset."""
        return [restore_dataset(self.cluster, r)[0] for r in range(self.n)]

    def expected(self) -> List[Dataset]:
        return self.datasets

    def after_restores(self) -> None:
        """Once, after the last cycle: what the workload does besides."""

    def repair_once(self):
        return repair_cluster(self.cluster, self.k, backend=self.backend)

    def _hook(self, phase: str, rank: int) -> None:
        """``phase_hook`` for dumps whose world the benchmark does not own
        (chain, service): records into the marks of the traced rep, if any."""
        if self.marks is not None:
            self.marks.setdefault(rank, []).append((phase, time.perf_counter()))

    # -- the three timed sections ---------------------------------------------------
    def warm_up(self) -> None:
        """One untimed pass over dump, restore and repair."""
        self.dump_once(None)
        self.restore_once()
        replace_node(self.cluster, 0)
        self.repair_once()

    def measure(self) -> None:
        run = self.run
        run.began = time.perf_counter()
        with gc_paused():
            with run.guard("dump section"):
                self.dump_section()
            with run.guard("repair and restore cycles"):
                self.before_restores()
                self.cycle_section()
                self.after_restores()

    def dump_section(self) -> None:
        run = self.run
        for i in run.reps(DUMPS_UNTIL, 3, self.fixed_dumps):
            self.before_dump(i)
            reports = run.dump_rep(i, self.logical_bytes, self.dump_once)
            sent = sum(r.sent_bytes for r in reports)
            run.check(
                sent == sum(r.received_bytes for r in reports),
                f"{self.name}: sum sent == sum received",
            )
            self.sent += sent
            self.dumped += self.logical_bytes
            for report in reports:
                self.received[report.rank] += report.received_bytes
            self.after_dump(i)
        self.stored_frac = self.cluster.total_physical_bytes / self.cluster_logical

    def cycle_section(self) -> None:
        """Cycles of: a node is replaced by a blank one, repair (timed), a
        second repair that must move nothing, then timed restores, each
        byte-compared."""
        run = self.run
        cluster = self.cluster
        for i in run.reps(CYCLES_UNTIL, 3):
            replace_node(cluster, i % len(cluster.nodes))
            run.rep_start()
            if i == 0:
                # Warm-up: the first repair of a cluster grows the heap by a
                # node's worth of chunks, and those page faults cost several
                # times the repair itself.
                self.repair_once()
            else:
                self.repair_rep()
            self.node_down()
            for _ in range(RESTORES_PER_CYCLE):
                run.rep_start()
                got = run.clock("restore", self.logical_bytes, self.restore_once)
                run.check(same_bytes(got, self.expected()), f"{self.name}: restore byte-equal")
                del got  # freed before the next rep starts, not during it
            cluster.revive_all()  # undoes node_down

    def repair_rep(self) -> None:
        run = self.run
        cluster = self.cluster
        if run.trace:
            scan = run.clock(
                "repair.scan", lambda scan: scan.deficit_chunks,
                scan_cluster, cluster, self.k,
            )
            run.clock("repair.plan", 0, plan_repair, cluster, scan)
        report = run.clock("repair", lambda rep: rep.deficit_bytes, self.repair_once)
        run.check(
            report.complete and report.bytes_moved == report.deficit_bytes > 0,
            f"{self.name}: repair moved its whole deficit",
        )
        second = self.repair_once()
        self.second_pass_bytes += second.bytes_moved
        run.check(second.bytes_moved == 0, f"{self.name}: second repair moves 0 bytes")

    # -- results --------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        run = self.run
        mean_received = sum(self.received) / self.n
        return {
            "dump_MBps": run.rate_MBps("dump"),
            "restore_MBps": run.rate_MBps("restore"),
            "repair_MBps": run.rate_MBps("repair"),
            "replicated_frac": self.sent / self.dumped if self.dumped else 0.0,
            "stored_frac": self.stored_frac,
            "recv_imbalance": max(self.received) / mean_received if mean_received else 0.0,
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    # -- per-layer (traced runs) ----------------------------------------------------
    def walk_inputs(self):
        """``(datasets, config)`` of one real dump, for the layer walk."""
        return self.datasets, self.config

    def walk_restores(self, facts) -> List[dict]:
        """Layer walk of every rank's restore (from the scratch cluster the
        dump walk built, unless the workload restores from elsewhere)."""
        return [
            layers.walk_restore(self.run.spans, facts["cluster"], r, facts["manifests"][r])
            for r in range(self.n)
        ]

    def walk(self):
        run = self.run
        datasets, config = self.walk_inputs()
        facts = layers.walk_dump(
            run.spans, datasets, config, self.dedup, self.shard_count,
            delta_codec=self.backend == "process",
        )
        restores = self.walk_restores(facts)
        self.facts = facts
        self.walk_self = run.spans.self_times()
        self.walk_coverage = 1.0 - self.walk_self["walk"] / run.spans.total("walk")
        return datasets, facts, restores

    def per_layer(self) -> Dict[str, float]:
        run = self.run
        out: Dict[str, float] = {}
        with run.guard("layer walk"):
            datasets, facts, restores = self.walk()
            self.check_walk(datasets, facts, restores)
            out.update(self.walk_metrics(facts, restores))
            out.update(layers.probe_simmpi(self.n, facts["k"], facts))
        out.update(layers.host_calibration())
        out["host.slowdown"] = run.host_slowdown()
        out["host.kernel_fast_s"] = statistics.quantiles(run.host_seconds, n=10)[0]
        if out.get("core.fingerprint.hash_MBps"):
            out["core.fingerprint.vs_host_sha1"] = (
                out["core.fingerprint.hash_MBps"] / out["host.sha1_MBps"]
            )
        out.update(self.phase_metrics())
        out.update(self.sample_metrics())
        untraced, traced = run.median_s("dump"), run.median_s("dump.traced")
        if untraced and traced:
            out["obs.trace_overhead_frac"] = traced / untraced - 1.0
        return out

    def check_walk(self, datasets, facts, restores) -> None:
        """The walk is only evidence if it did what the program does."""
        self.run.check(
            same_bytes([r["dataset"] for r in restores], datasets),
            f"{self.name}: layer walk restores byte-equal",
        )

    def walk_metrics(self, facts, restores) -> Dict[str, float]:
        """Layer figures of the walk.  A layer whose span never ran is not on
        this workload's path and gets no metric (n/a, not zero)."""
        ran = self.walk_self
        out: Dict[str, float] = {}

        def seconds(metric: str, *spans: str) -> float:
            """``metric`` = summed self seconds of ``spans``, if any ran."""
            total = sum(ran.get(span, 0.0) for span in spans)
            if any(span in ran for span in spans):
                out[metric] = total
            return total

        def rate(metric: str, nbytes: int, secs: float) -> None:
            if secs:
                out[metric] = nbytes / secs / 1e6

        hash_s = seconds("core.fingerprint.hash_s", "core.fingerprint")
        rate("core.fingerprint.hash_MBps", facts["dataset_bytes"], hash_s)
        seconds("core.local_dedup.index_s", "core.local_dedup")
        seconds("core.hmerge.from_local_s", "core.hmerge.from_local")
        seconds("core.hmerge.merge_tree_s", "core.hmerge.merge_tree", "core.hmerge.view")
        seconds("core.planner.build_plan_s", "core.planner.build_plan")
        seconds("core.shuffle.shuffle_s", "core.shuffle.rank_shuffle")
        seconds("core.offsets.layout_s", "core.offsets.window_layout")
        encode_s = seconds("core.wire.encode_s", "core.wire.encode")
        rate("core.wire.encode_MBps", facts["wire_bytes"], encode_s)
        seconds("core.wire.decode_s", "core.wire.decode")
        seconds("core.wire.merge_table_codec_s", "core.wire.merge_table_codec")
        seconds("core.wire.restore_req_reply_codec_s", "core.wire.restore_codec")
        put_s = seconds("storage.local_store.put_many_s", "storage.local_store.put_many")
        put_s += seconds("storage.local_store.put_counted_s", "storage.local_store.put_counted")
        rate("storage.local_store.put_MBps", facts["put_bytes"], put_s)
        get_s = seconds("storage.local_store.get_many_s", "storage.local_store.get_many")
        rate("storage.local_store.get_MBps", sum(r["get_bytes"] for r in restores), get_s)
        seconds("storage.local_store.locate_many_s", "storage.local_store.locate_many")
        seconds("storage.manifest.encode_s", "storage.manifest.encode")
        seconds("storage.manifest.decode_s", "storage.manifest.decode")
        seconds("storage.delta_codec.encode_s", "storage.delta_codec.encode")
        seconds("storage.delta_codec.decode_s", "storage.delta_codec.decode")
        seconds("core.restore_plan.plan_s", "core.restore_plan.plan")
        seconds("core.restore.reassemble_s", "core.restore.reassemble")

        # Counts the walk took where the layer ran (absent keys: it did not).
        for metric, fact in (
            ("core.hmerge.view_entries", "view_entries"),
            ("core.hmerge.view_bytes", "view_bytes"),
            ("core.hmerge.rounds", "rounds"),
            ("core.planner.topup_chunks", "topup_chunks"),
            ("storage.delta_codec.bytes", "delta_bytes"),
        ):
            if fact in facts:
                out[metric] = facts[fact]
        out.update({
            "core.local_dedup.unique_frac": facts["unique_frac"],
            "core.planner.discarded_frac": facts["discarded_frac"],
            # Niesen yardstick: stored bytes against K copies of the
            # source's distinct content.
            "core.planner.excess_vs_bound": facts["cluster"].total_physical_bytes
            / (facts["k"] * facts["distinct_bytes"]),
            "core.offsets.window_slots_max": facts["window_slots_max"],
            "core.wire.records": facts["records"],
            "storage.local_store.dedup_hit_frac": facts["cluster"].store_stats()["dedup_ratio"],
            "storage.manifest.bytes_per_chunk": facts["manifest_bytes"] / facts["total_chunks"],
            "core.restore_plan.remote_frac": statistics.mean(r["remote_frac"] for r in restores),
            "core.restore_plan.source_runs_per_MB": statistics.mean(
                r["source_runs_per_MB"] for r in restores
            ),
            "obs.walk_coverage_frac": self.walk_coverage,
        })
        return out

    def phase_metrics(self) -> Dict[str, float]:
        """Phase seconds of the traced dumps, and for each phase the part
        that is not the rank's own work: the phase's wall minus what one
        rank alone would spend in it, which is the layer walk's per-rank
        mean of the layers in that phase."""
        run = self.run
        n = self.n

        def s(name: str) -> float:
            return self.walk_self.get(name, 0.0)

        lane = self.facts.get("rounds", 0) / max(1, n - 1)
        own = {
            "hash": (s("core.fingerprint") + s("core.local_dedup")) / n,
            "reduction": s("core.hmerge.from_local") / n
            + s("core.hmerge.merge_tree") * lane
            + s("core.hmerge.view")
            + s("core.planner.build_plan") / n,
            "allgather": s("core.shuffle.rank_shuffle") + s("core.offsets.window_layout"),
            "exchange": (s("core.wire.encode") + s("walk.window_copy") + s("core.wire.decode")) / n,
            "write": (
                s("storage.local_store.put_many")
                + s("storage.local_store.put_counted")
                + s("storage.manifest.encode")
            ) / n,
        }
        phases = {"phase.pre_s": run.phase_median("pre")}
        for phase in PHASES:
            wall = run.phase_median(phase)
            phases[f"phase.{phase}_s"] = wall
            phases[f"phase.{phase}_wait_s"] = wall - own[phase] if wall else 0.0
        return phases

    def sample_metrics(self) -> Dict[str, float]:
        """Diagnostics read off the timed samples: tails, repair stages."""
        run = self.run
        out: Dict[str, float] = {}
        for op in ("dump", "restore", "repair"):
            seconds = run.seconds_of(op)
            if seconds:
                value, pct = tail(seconds)
                out[f"e2e.{op}_median_s"] = statistics.median(seconds)
                out[f"e2e.{op}_tail_s"] = value
                out[f"e2e.{op}_tail_pct"] = pct
                out[f"e2e.{op}_samples"] = len(seconds)
        scan, plan = run.median_s("repair.scan"), run.median_s("repair.plan")
        moved = [b for b, _s in run.samples.get("repair", ())]
        deficits = [c for c, _s in run.samples.get("repair.scan", ())]
        out.update({
            "repair.scanner.scan_s": scan,
            "repair.scanner.deficit_chunks": deficits[0] if deficits else 0,
            "repair.planner.plan_s": plan,
            "repair.executor.execute_s": max(0.0, run.median_s("repair") - scan - plan),
            "repair.executor.bytes_moved": moved[0] if moved else 0,
            "repair.executor.second_pass_bytes": self.second_pass_bytes,
        })
        return out


class _Synthetic(Workload):
    """Cold dumps of per-rank synthetic datasets onto fresh clusters."""

    #: per-rank ``frac_global``; unequal values skew the ranks
    frac_global: Sequence[float] = (0.2,) * 4
    frac_local_dup = 0.2

    def generator(self, rank: int) -> SyntheticWorkload:
        return SyntheticWorkload(
            chunks_per_rank=self.rank_bytes // self.chunk_size,
            chunk_size=self.chunk_size,
            frac_global=self.frac_global[rank],
            frac_zero=0.1,
            frac_local_dup=self.frac_local_dup,
            seed=self.run.seed,
        )

    def setup(self) -> None:
        self.datasets = [
            self.generator(rank).build_dataset(rank, self.n) for rank in range(self.n)
        ]
        self.logical_bytes = sum(d.nbytes for d in self.datasets)
        self.warm_up()

    def before_dump(self, i: int) -> None:
        self.cluster = None  # free the previous rep's cluster off the clock

    def check_walk(self, datasets, facts, restores) -> None:
        super().check_walk(datasets, facts, restores)
        # The scratch cluster the walk built must hold exactly what a real
        # dump stores, or the walk timed a different pipeline.
        self.run.check(
            facts["cluster"].total_physical_bytes / facts["dataset_bytes"]
            == self.stored_frac,
            f"{self.name}: layer walk stores what the dump stores",
        )


class ColdColl4k(_Synthetic):
    name = "cold-coll-4k"
    frac_global = (0.1, 0.3, 0.5, 0.7)
    frac_local_dup = 0.1


class ColdNodedup256(_Synthetic):
    name = "cold-nodedup-256"
    k = 4
    strategy = Strategy.NO_DEDUP
    chunk_size = 256
    rank_bytes = 2 << 20
    # a no-dedup store keeps every copy, as the paper's baseline does
    dedup = False


class FailRestoreRepair(_Synthetic):
    name = "fail-restore-repair"
    rank_bytes = 8 << 20

    def node_down(self) -> None:
        self.cluster.fail_rank(0)

    def restore_once(self) -> List[Dataset]:
        """Collective ``load_input`` of every rank."""
        def program(comm, cluster):
            return load_input(comm, cluster, self.config)[0]

        results, _world = run_collective(
            self.n, program, self.cluster, cluster=self.cluster
        )
        return results

    def after_restores(self) -> None:
        # With rank 0's node down its single-rank restore is fully remote.
        run = self.run
        self.cluster.fail_rank(0)
        for _ in range(3):
            got, report = run.clock(
                "restore.remote", self.datasets[0].nbytes, restore_dataset, self.cluster, 0
            )
            run.check(
                report.local_chunks == 0 and same_bytes([got], self.datasets[:1]),
                f"{self.name}: remote restore byte-equal",
            )
        self.cluster.revive_all()

    def check_walk(self, datasets, facts, restores) -> None:
        super().check_walk(datasets, facts, restores)
        generator = self.generator(0)
        self.run.check(
            facts["distinct_chunks"] == generator.expected_global_distinct_chunks(self.n),
            f"{self.name}: distinct chunks match the generator's closed form",
        )

    def walk_restores(self, facts) -> List[dict]:
        facts["cluster"].fail_rank(0)
        return super().walk_restores(facts)

    def sample_metrics(self) -> Dict[str, float]:
        out = super().sample_metrics()
        out["core.collective_restore.load_input_s"] = self.run.median_s("restore")
        out["core.restore.remote_restore_s"] = self.run.median_s("restore.remote")
        return out


class ProcColl2r(_Synthetic):
    name = "proc-coll-2r"
    n = 2
    k = 2
    backend = "process"
    frac_global = (0.2, 0.2)

    def measure(self) -> None:
        before = set(os.listdir("/dev/shm"))
        super().measure()
        leaked = set(os.listdir("/dev/shm")) - before
        self.run.check(not leaked, f"{self.name}: no /dev/shm segment left behind: {leaked}")

    def after_dump(self, i: int) -> None:
        """A traced run also times the pipelined process dump and the thread
        dump of the same inputs, for the backend comparison."""
        if not self.run.trace:
            return
        for op, config, backend in (
            ("dump.pipelined", self.config.with_(pipelined=True), "process"),
            ("dump.thread", self.config, "thread"),
        ):
            self.run.rep_start()
            cluster = Cluster(self.n)
            self.run.clock(
                op, self.logical_bytes, spmd_dump, self.datasets, config, cluster, backend
            )

    def per_layer(self) -> Dict[str, float]:
        out = super().per_layer()
        run = self.run
        with run.guard("process world probes"):
            out.update(layers.probe_procworld(self.n, self.facts["delta_blob"]))
        strict = run.median_s("dump")
        if strict:
            out["simmpi.procworld.vs_thread"] = run.median_s("dump.thread") / strict
            out["core.pipeline.speedup"] = strict / run.median_s("dump.pipelined")
        return out


class WarmDeltaChain(Workload):
    name = "warm-delta-chain"
    rank_bytes = 8 << 20
    fixed_dumps = 32
    dirty_frac = 0.05
    #: epochs whose time-travel restore a traced run probes (depth = epoch + 1)
    probe_epochs = (0, 8, 32)

    def setup(self) -> None:
        half = self.rank_bytes // 2
        self.generator = MutatingWorkload(
            seed=self.run.seed,
            segment_lengths=(half, half),
            chunk_size=self.chunk_size,
            dirty_frac=self.dirty_frac,
        )
        self.cluster = Cluster(self.n)
        self.chain = ChainManager(self.cluster, self.config, self.n)
        # The base full is the fixture and the warm-up rep in one.
        base = self.chain.chain_dump(self.generator, kind="full")
        self.logical_bytes = sum(r.dataset_bytes for r in base.reports)
        self.cluster_logical = self.logical_bytes
        self.delta_fracs: List[float] = []

    def before_dump(self, i: int) -> None:
        self.generator.advance()

    def dump_once(self, marks):
        """One delta epoch; its rate counts the full logical state, i.e. the
        effective rate of checkpointing this epoch."""
        self.marks = marks
        chain = self.chain
        chain.config = chain.config.with_(trace_level="span" if marks is not None else None)
        result = chain.chain_dump(
            self.generator, kind="delta",
            phase_hook=self._hook if marks is not None else None,
        )
        self.marks = None
        self.run.check(result.kind == "delta", f"{self.name}: delta stayed a delta")
        self.delta_fracs.append(result.delta_fraction)
        self.cluster_logical += self.logical_bytes
        return result.reports

    def before_restores(self) -> None:
        self.tip = self.chain.tip().epoch
        self._expected = [
            self.generator.build_dataset(r, self.n) for r in range(self.n)
        ]

    def restore_once(self) -> List[Dataset]:
        return [self.chain.restore_epoch(r, self.tip)[0] for r in range(self.n)]

    def expected(self) -> List[Dataset]:
        return self._expected

    def after_restores(self) -> None:
        run = self.run
        chain = self.chain
        if run.trace:
            for epoch in self.probe_epochs:
                depth = chain.depth_of(epoch)
                for _ in range(5):
                    run.clock(f"chain.resolve_d{depth}", 0, chain.resolved_fps, epoch, 0)
                got, _report = run.clock(
                    f"chain.restore_d{depth}", 0, chain.restore_epoch, 0, epoch
                )
                want = self.generator.at_epoch(epoch).build_dataset(0, self.n)
                run.check(same_bytes([got], [want]), f"{self.name}: epoch {epoch} byte-equal")
            self.tip_restores = [
                layers.walk_restore(
                    run.spans, self.cluster, r, chain.synthetic_manifest(r, self.tip)
                )
                for r in range(self.n)
            ]
            run.check(
                same_bytes([r["dataset"] for r in self.tip_restores], self._expected),
                f"{self.name}: layer walk of the tip restore byte-equal",
            )
        run.clock("chain.compact", 0, chain.compact, self.tip)
        run.clock("chain.prune", 0, chain.prune, 0)
        blob = run.clock("chain.to_blob", 0, chain.to_blob)
        self.blob_bytes = len(blob)
        run.check(
            same_bytes(self.restore_once(), self._expected),
            f"{self.name}: tip byte-equal after compact and prune",
        )

    # The walk replays one delta epoch: each rank's dirty chunks.
    def walk_inputs(self):
        datasets, self.dirty = [], []
        for rank, full in enumerate(self._expected):
            regions = self.generator.dirty_regions(rank, self.n)
            self.dirty.append(regions)
            datasets.append(Dataset([
                bytes(full.segment(seg)[lo:hi])
                for seg, ranges in enumerate(regions)
                for lo, hi in ranges
            ]))
        return datasets, self.config

    def walk_restores(self, facts) -> List[dict]:
        # The delta's scratch cluster must still restore (checked against the
        # delta datasets, outside the recorded spans); the restore metrics
        # come from the walk of the real tip restore.
        self.delta_restores = [
            layers.walk_restore(Spans(), facts["cluster"], r, facts["manifests"][r])
            for r in range(self.n)
        ]
        return self.tip_restores

    def check_walk(self, datasets, facts, restores) -> None:
        self.run.check(
            same_bytes([r["dataset"] for r in self.delta_restores], datasets),
            f"{self.name}: layer walk restores the delta byte-equal",
        )

    def per_layer(self) -> Dict[str, float]:
        out = super().per_layer()
        run = self.run
        with run.guard("fingerprint cache probe"):
            out.update(layers.probe_fpcache(self._expected, self.dirty, self.config))
        for epoch in self.probe_epochs:
            depth = epoch + 1
            out[f"chain.manager.resolve_s_d{depth}"] = run.median_s(f"chain.resolve_d{depth}")
            out[f"chain.manager.restore_s_d{depth}"] = run.median_s(f"chain.restore_d{depth}")
        out.update({
            "chain.manager.delta_frac": statistics.mean(self.delta_fracs),
            "chain.manager.compact_s": run.median_s("chain.compact"),
            "chain.manager.prune_s": run.median_s("chain.prune"),
            "chain.manager.to_blob_s": run.median_s("chain.to_blob"),
            "chain.manager.blob_bytes": self.blob_bytes,
        })
        return out


class SvcDrain(Workload):
    name = "svc-drain"
    rank_bytes = 512 * 4096
    shard_count = 8
    tenants = ("a", "b", "c")
    dumps_per_tenant = 10
    fixed_dumps = 30
    overlap = 0.5

    def service(self) -> CheckpointService:
        svc = CheckpointService(
            self.n, config=self.config, shard_count=self.shard_count, max_inflight=1
        )
        for tenant in self.tenants:
            svc.register_tenant(tenant)
        return svc

    def generator(self, tenant_index: int, dump_index: int) -> TenantWorkload:
        return TenantWorkload(
            tenant_index,
            overlap=self.overlap,
            chunks_per_rank=self.rank_bytes // self.chunk_size,
            chunk_size=self.chunk_size,
            seed=self.run.seed,
            dump_index=dump_index,
        )

    def setup(self) -> None:
        warm = self.service()
        warm.submit(self.tenants[0], self.generator(0, 0))
        warm.step()
        warm.restore(self.tenants[0], 0, 0)
        self.svc = self.service()
        self.cluster = self.svc.cluster
        self.logical_bytes = self.rank_bytes * self.n
        self.wait_ticks: List[int] = []

    def before_dump(self, i: int) -> None:
        """Closed loop: every request is queued up front, then the service
        is stepped one admitted request at a time."""
        if i:
            return
        hook = self._hook if self.run.trace else None
        for dump_index in range(self.dumps_per_tenant):
            for t, tenant in enumerate(self.tenants):
                self.run.clock(
                    "svc.submit", 0, self.svc.submit,
                    tenant, self.generator(t, dump_index), hook,
                )

    def dump_once(self, marks):
        self.marks = marks
        svc = self.svc
        svc.config = self.config.with_(trace_level="span" if marks is not None else None)
        (outcome,) = svc.step()
        self.marks = None
        self.wait_ticks.append(outcome.wait_ticks)
        self.last_global_id = outcome.global_dump_id
        self.cluster_logical += self.logical_bytes
        return outcome.reports

    def before_restores(self) -> None:
        self.newest = self.dumps_per_tenant - 1
        self._expected = [
            self.generator(0, self.newest).build_dataset(r, self.n) for r in range(self.n)
        ]
        self.dedup_ratio = self.svc.cross_tenant_dedup_ratio()

    def restore_once(self) -> List[Dataset]:
        return [
            self.svc.restore(self.tenants[0], r, self.newest)[0] for r in range(self.n)
        ]

    def expected(self) -> List[Dataset]:
        return self._expected

    def after_restores(self) -> None:
        run = self.run
        for tenant in self.tenants:
            for dump_id in range(self.dumps_per_tenant // 2):
                run.clock("svc.gc", 0, self.svc.gc, tenant, dump_id)
        run.check(self.svc.isolation_audit() == [], f"{self.name}: isolation audit empty")
        run.check(
            same_bytes(self.restore_once(), self._expected),
            f"{self.name}: survivor byte-equal after gc",
        )

    def repair_once(self):
        return self.svc.repair()

    def walk_inputs(self):
        return self._expected, self.config

    def per_layer(self) -> Dict[str, float]:
        out = super().per_layer()
        run = self.run
        generator = self.generator(0, 0)
        start = time.perf_counter()
        for r in range(self.n):
            generator.build_dataset(r, self.n)
        build_s = time.perf_counter() - start
        # GlobalDedupIndex.record on one request's fingerprints: first as
        # the first writer, then as a second tenant hitting every entry.
        fps = sorted({
            fp
            for r in range(self.n)
            for fp in self.cluster.find_manifest(r, self.last_global_id).fingerprints
        })
        index = GlobalDedupIndex(self.shard_count)
        start = time.perf_counter()
        for tenant in self.tenants[:2]:
            for fp in fps:
                index.record(tenant, fp, self.chunk_size)
        record_s = time.perf_counter() - start
        out.update({
            "svc.service.req_p50_s": run.median_s("dump"),
            "svc.service.submit_s": run.median_s("svc.submit"),
            "svc.service.build_dataset_s": build_s,
            "svc.service.gc_s": run.median_s("svc.gc"),
            "svc.service.cross_tenant_dedup_ratio": self.dedup_ratio,
            "svc.index.record_s": record_s,
            "svc.admission.wait_ticks_p50": statistics.median(self.wait_ticks),
        })
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (
        ColdColl4k, ColdNodedup256, WarmDeltaChain, FailRestoreRepair, SvcDrain, ProcColl2r,
    )
}
