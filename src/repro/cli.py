"""Command-line interface: ``repro-eval`` (or ``python -m repro.cli``).

Runs the paper's experiments from the shell without writing any code:

    repro-eval table1 --app hpccg --n 64 196
    repro-eval fig3a  --app cm1 --n 264
    repro-eval sweep-k --app hpccg --n 408 --k 1 2 3 4 5 6
    repro-eval shuffle --app cm1 --n 408
    repro-eval fig2

Results print as the paper-shaped text tables from
:mod:`repro.analysis.tables`.

Observability (see :mod:`repro.obs`):

    repro-eval trace-record --n 4 --backend process --out run.json \
        --perfetto run_perfetto.json
    repro-eval trace run.json
    repro-eval trace run.json --against baseline.json

Deterministic simulation testing (see :mod:`repro.dst`):

    repro-eval fuzz --seed 7
    repro-eval fuzz --seed 0 --runs 25
    repro-eval fuzz --corpus
    repro-eval fuzz --replay dst-failure.json --trace fuzz_run.json

Multi-tenant checkpoint service (see :mod:`repro.svc`):

    repro-eval serve --tenants 3 --dumps 4 --overlap 0.5
    repro-eval serve --tenants 2 --shards 8 --attribution split \
        --gc-oldest --out svc_run.json
    repro-eval serve --tenants 2 --dumps 6 --slo --top-every 2

SLO burn rates (see :mod:`repro.obs`):

    repro-eval slo --seed 7 --tenants 3 --bursts 8 --out verdict.json

Errors (unknown subcommands, bad ``--backend``, missing trace files,
malformed snapshots) print a one-line message to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    WorkloadRunner,
    cm1_runner,
    fig2_example,
    hpccg_runner,
)
from repro.analysis.tables import format_series, format_table
from repro.core import Strategy
from repro.simmpi.errors import SimMPIError


def _runner(app: str) -> WorkloadRunner:
    if app == "hpccg":
        return hpccg_runner()
    if app == "cm1":
        return cm1_runner()
    raise SystemExit(f"unknown app {app!r}; expected hpccg or cm1")


def cmd_fig2(_args) -> None:
    out = fig2_example()
    print(format_table(
        ["selection", "max receive (chunks)"],
        [
            ["naive (i+1..i+K-1)", out["naive_max_receive"]],
            ["load-aware shuffle", out["shuffled_max_receive"]],
        ],
    ))


def cmd_table1(args) -> None:
    runner = _runner(args.app)
    rows = []
    for n in args.n:
        runs = runner.run_strategies(n, k=args.k)
        rows.append([
            n,
            f"{runs[Strategy.NO_DEDUP].completion_s:.0f}",
            f"{runs[Strategy.LOCAL_DEDUP].completion_s:.0f}",
            f"{runs[Strategy.COLL_DEDUP].completion_s:.0f}",
            f"{runner.timeline.baseline(n):.0f}",
        ])
    print(f"{runner.name}: completion time (s), K={args.k}")
    print(format_table(
        ["# procs", "no-dedup", "local-dedup", "coll-dedup", "baseline"], rows
    ))


def cmd_fig3a(args) -> None:
    runner = _runner(args.app)
    for n in args.n:
        runs = runner.run_strategies(n, k=args.k)
        print(f"{runner.name}-{n}: unique content")
        print(format_table(
            ["approach", "fraction of raw data"],
            [
                [s.value, f"{runs[s].metrics.unique_fraction * 100:.1f}%"]
                for s in Strategy
            ],
        ))


def cmd_sweep_k(args) -> None:
    runner = _runner(args.app)
    n = args.n[0]
    series = {
        s.value: [f"{runner.run(n, s, k=k).increase_s:.0f}" for k in args.k]
        for s in Strategy
    }
    print(f"{runner.name}-{n}: increase in execution time (s) vs K")
    print(format_series("K", list(args.k), series))


def _world_args(
    parser, n, k, chunks_per_rank, chunk_size, strategy=True,
    n_help="process count", seed_help=None,
) -> None:
    """Declare the flags of a subcommand that drives a world: its geometry,
    ``--strategy`` (unless ``strategy=False``), ``--seed`` and ``--backend``.
    A list default for ``n`` makes ``--n`` take several values."""
    parser.add_argument("--n", type=int, default=n, help=n_help,
                        nargs="+" if isinstance(n, list) else None)
    parser.add_argument("--k", type=int, default=k, help="replication factor")
    parser.add_argument("--chunks-per-rank", type=int, default=chunks_per_rank)
    parser.add_argument("--chunk-size", type=int, default=chunk_size)
    if strategy:
        parser.add_argument("--strategy", default=Strategy.COLL_DEDUP.value,
                            choices=[s.value for s in Strategy])
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    parser.add_argument("--backend", help="SPMD execution backend: thread or "
                        "process (default: REPRO_SPMD_BACKEND or thread)")


def _config(args, **extra):
    """The subcommand's :class:`~repro.core.config.DumpConfig`.

    Resolves ``args.backend`` first, so a bad name fails before any work
    and every world, report and snapshot of the run sees one canonical
    name (the flag, else ``REPRO_SPMD_BACKEND``, else thread).
    """
    from repro.core.config import DumpConfig
    from repro.simmpi.backend import normalize_backend

    args.backend = normalize_backend(args.backend)
    return DumpConfig(
        replication_factor=args.k,
        chunk_size=args.chunk_size,
        f_threshold=1 << 14,
        strategy=getattr(args, "strategy", Strategy.COLL_DEDUP),
        **extra,
    )


def _service(args, config=None, **kw):
    """The checkpoint service a subcommand runs its world through, on its
    first ``--n`` where it takes several; ``config`` defaults to
    :func:`_config`'s."""
    from repro.svc import CheckpointService

    config = config or _config(args)
    n = args.n[0] if isinstance(args.n, list) else args.n
    return CheckpointService(n, config=config, backend=args.backend, **kw)


def _synthetic_full(args, service):
    """Dump the seeded synthetic workload as the one full of a fresh
    tenant; returns the :class:`~repro.svc.DumpOutcome`."""
    from repro.apps.synthetic import SyntheticWorkload

    service.register_tenant("synthetic")
    service.submit("synthetic", SyntheticWorkload(
        chunks_per_rank=args.chunks_per_rank, chunk_size=args.chunk_size,
        seed=args.seed,
    ))
    (outcome,) = service.drain()
    return outcome


def cmd_repair(args) -> None:
    """Demonstrate the failure -> repair cycle on a synthetic cluster.

    Dumps a synthetic workload as one full through the service, fails
    ``--fail`` random nodes, repairs back to K and audits — printing what
    the scan found, what moved where, and the modelled repair time.
    """
    from repro.netsim import MachineProfile, repair_time
    from repro.core.runner import run_collective
    from repro.repair import execute_repair, plan_repair, scan_cluster
    from repro.sim.metrics import repair_balance
    from repro.storage.failures import FailureInjector

    n, k = args.n[0], args.k
    if args.fail >= n:
        raise SystemExit(f"cannot fail {args.fail} of {n} nodes")
    service = _service(args)
    _synthetic_full(args, service)
    cluster = service.cluster

    injector = FailureInjector(cluster, seed=args.seed)
    victims = injector.fail_random_nodes(args.fail)
    lost_bytes = sum(cluster.nodes[v].chunks.physical_bytes for v in victims)
    scan = scan_cluster(cluster, k)
    schedule = plan_repair(cluster, scan)
    results, _world = run_collective(
        n, execute_repair, cluster, schedule, scan,
        cluster=cluster, backend=args.backend,
    )
    report = results[0]
    audit = injector.audit(0)
    balance = repair_balance(report)
    modelled = repair_time(report, MachineProfile.shamrock())

    print(f"synthetic-{n}: failed nodes {sorted(victims)} (K={k})")
    print(format_table(
        ["stage", "chunks", "bytes"],
        [
            ["lost with failed nodes", "-", lost_bytes],
            ["under-replicated (scan)", scan.deficit_chunks, scan.deficit_bytes],
            ["scheduled", schedule.chunks_scheduled, schedule.bytes_scheduled],
            ["moved (repair)", report.chunks_moved, report.bytes_moved],
            ["manifests re-replicated", report.manifests_moved,
             report.manifest_bytes_moved],
        ],
    ))
    print(format_table(
        ["balance", "nodes", "avg B", "max B", "max/avg"],
        [
            ["repair reads", balance.source_nodes, f"{balance.read_avg:.0f}",
             balance.read_max, f"{balance.read_imbalance:.2f}"],
            ["repair writes", balance.dest_nodes, f"{balance.write_avg:.0f}",
             balance.write_max, f"{balance.write_imbalance:.2f}"],
        ],
    ))
    print(format_table(
        ["modelled repair time", "seconds"],
        [
            ["exchange", f"{modelled.exchange:.4f}"],
            ["write", f"{modelled.write:.4f}"],
            ["manifest", f"{modelled.manifest:.4f}"],
            ["total", f"{modelled.total:.4f}"],
        ],
    ))
    verdict = "all recoverable" if audit.all_recoverable else (
        f"LOST ranks {audit.lost_ranks}"
    )
    print(f"post-repair audit: {verdict}")
    if not audit.all_recoverable:
        raise SystemExit(1)


def cmd_trace_record(args) -> None:
    """Record a span-level synthetic full through the service and write
    the run snapshot of the collective's per-rank traces."""
    from repro.core.fingerprint import FAST_HASH_NAME
    from repro.obs import capture_run, write_chrome_trace, write_run

    n = args.n
    config = _config(
        args, pipelined=args.pipelined, trace_level="span",
        hash_name=FAST_HASH_NAME if args.integrity == "fast" else "sha1",
    )
    outcome = _synthetic_full(args, _service(args, config))
    run = capture_run(
        outcome.traces,
        meta={
            "backend": args.backend,
            "n": n,
            "k": args.k,
            "strategy": config.strategy.value,
            "chunks_per_rank": args.chunks_per_rank,
            "chunk_size": args.chunk_size,
            "pipelined": args.pipelined,
            "integrity": args.integrity,
        },
    )
    write_run(args.out, run)
    n_spans = sum(len(entry["spans"]) for entry in run["ranks"])
    print(f"wrote {args.out} ({n} ranks, {n_spans} spans)")
    if args.perfetto:
        write_chrome_trace(args.perfetto, run)
        print(f"wrote {args.perfetto} (load at https://ui.perfetto.dev)")


def cmd_trace(args) -> None:
    """Analyze a recorded run snapshot (critical path, skew, A/B diff)."""
    from repro.obs.analyzer import format_report, load_run

    run = load_run(args.file)
    against = load_run(args.against) if args.against else None
    print(
        format_report(
            run, against=against, top=args.top,
            skew_threshold=args.skew_threshold,
        )
    )


def cmd_fuzz(args) -> None:
    """Deterministic scenario fuzzing (see :mod:`repro.dst`).

    Exactly one scenario source: ``--seed N`` (plus ``--runs R`` for seeds
    N..N+R-1), ``--replay FILE`` (a scenario JSON, e.g. a shrunk failure),
    or ``--corpus [DIR]`` (the checked-in corpus).  Exit 0 when every
    scenario upholds every invariant, 1 on violations, a step that raised
    (``step-error``) included, after shrinking the first failure to a
    minimal reproducer, 2 on usage errors, a sweep of no scenarios included.
    """
    import json

    from repro.dst import (
        default_corpus_dir,
        generate_scenario,
        iter_corpus,
        load_scenario,
        run_scenario,
        save_scenario,
        shrink,
    )

    sources = sum(
        1 for flag in (args.seed is not None, args.replay, args.corpus is not None)
        if flag
    )
    if sources != 1:
        raise ValueError(
            "fuzz: exactly one of --seed, --replay or --corpus is required"
        )
    if args.replay:
        scenarios = [(args.replay, load_scenario(args.replay))]
    elif args.corpus is not None:
        directory = args.corpus or default_corpus_dir()
        scenarios = list(iter_corpus(directory))
    elif args.chain:
        # Scan seeds upward from --seed until --runs chain scenarios are
        # found (roughly 1 in 4 seeds outside the repeat mode draws one).
        scenarios = []
        seed, limit = args.seed, args.seed + 100 * args.runs
        while len(scenarios) < args.runs and seed < limit:
            scenario = generate_scenario(seed)
            if scenario.chain:
                scenarios.append((f"seed {seed}", scenario))
            seed += 1
        if len(scenarios) < args.runs:
            raise ValueError(
                f"fuzz: only {len(scenarios)} chain scenarios in seeds "
                f"{args.seed}..{limit - 1}"
            )
    else:
        scenarios = [
            (f"seed {args.seed + i}", generate_scenario(args.seed + i))
            for i in range(args.runs)
        ]
    if not scenarios:
        # A sweep that checked nothing must not report success.
        raise ValueError(
            "fuzz: no scenarios to run (an empty corpus directory, or "
            "--runs below 1)"
        )
    if args.trace and len(scenarios) != 1:
        raise ValueError("fuzz: --trace needs exactly one scenario")

    verdicts = []
    failure = None
    for label, scenario in scenarios:
        result = run_scenario(
            scenario,
            backend=args.backend,
            bug=args.inject_bug,
            collect_trace=bool(args.trace),
        )
        verdicts.append(result.verdict())
        if result.ok:
            print(f"{label}: ok ({len(result.steps)} steps, "
                  f"cluster {result.cluster_digest[:12]})")
        else:
            print(f"{label}: FAIL ({len(result.violations)} violations)")
            for violation in result.violations:
                print(f"  [{violation.invariant}] step {violation.step}: "
                      f"{violation.detail}")
            if failure is None:
                failure = (label, scenario, result)
        if args.trace:
            from repro.obs import capture_run, write_run

            run = capture_run(
                result.traces,
                meta={
                    "source": "fuzz",
                    "seed": scenario.seed,
                    "n": scenario.n_ranks,
                    "k": scenario.k,
                    "backend": result.backend,
                },
            )
            write_run(args.trace, run)
            print(f"wrote {args.trace} ({len(run['ranks'])} ranks)")

    if args.out:
        doc = {"ok": failure is None, "runs": verdicts}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out} ({len(verdicts)} verdicts)")

    if failure is None:
        return
    label, scenario, result = failure
    if args.no_shrink:
        minimal = scenario
    else:
        print(f"shrinking {label} ...")

        def still_fails(candidate) -> bool:
            return not run_scenario(
                candidate, backend=args.backend, bug=args.inject_bug
            ).ok

        shrunk = shrink(scenario, still_fails)
        minimal = shrunk.scenario
        print(f"shrunk after {shrunk.evaluations} evaluations "
              f"({shrunk.accepted} reductions): n_ranks={minimal.n_ranks} "
              f"k={minimal.k} dumps={minimal.n_dumps} "
              f"crashes={minimal.crash_count}")
    save_scenario(args.scenario_out, minimal)
    print(f"wrote {args.scenario_out} "
          f"(replay with: repro-eval fuzz --replay {args.scenario_out})")
    raise SystemExit(1)


def cmd_chain(args) -> None:
    """Drive an incremental checkpoint chain end to end.

    Dumps ``--epochs`` epochs of a mutating workload (one full, then
    deltas; ``--full-every N`` inserts periodic fulls), restores every
    live epoch against the per-epoch workload oracle, then optionally
    prunes the oldest ``--prune`` epochs and compacts the tip.  Prints a
    per-epoch table (kind, dump id, dirty chunks, shipped bytes, depth)
    and the store footprint next to what N independent fulls would have
    cost — the incremental-chain savings story in one screen.

    The chain is one tenant of the checkpoint service: every epoch is a
    ``submit(kind=)`` + ``drain``, and restore, prune and compaction are
    the service's ``restore`` / ``gc`` / ``compact`` — the request path
    ``serve`` runs.
    """
    from repro.apps.mutating import MutatingWorkload

    tenant = "chain"
    service = _service(args)
    service.register_tenant(tenant)
    chain = service.chain_of(tenant)
    chunk_size = args.chunk_size
    workload = MutatingWorkload(
        seed=args.seed,
        segment_lengths=(
            chunk_size * max(1, args.chunks_per_rank - 2),
            chunk_size + max(1, chunk_size // 3),
            max(1, chunk_size // 2),
        ),
        chunk_size=chunk_size,
        dirty_frac=args.dirty_frac,
    )
    full_bytes = workload.per_rank_bytes(args.n) * args.n  # one geometry
    rows = []
    shipped_total = 0
    for epoch in range(args.epochs):
        if epoch:
            workload.advance()
        kind = "full" if not epoch or (
            args.full_every and epoch % args.full_every == 0
        ) else "delta"
        stored_before = service.index.unique_bytes
        service.submit(tenant, workload, kind=kind)
        (outcome,) = service.drain()
        shipped = sum(r.dataset_bytes for r in outcome.reports)
        shipped_total += shipped
        rows.append([
            outcome.tenant_dump_id,
            outcome.kind + ("*" if outcome.promoted else ""),
            outcome.global_dump_id,
            f"{outcome.changed_chunks}/{outcome.total_chunks}",
            shipped,
            service.index.unique_bytes - stored_before,
            chain.depth_of(outcome.tenant_dump_id),
        ])
    print(f"chain: {args.epochs} epochs, n={args.n}, K={args.k}, "
          f"dirty={args.dirty_frac:.0%}")
    print(format_table(
        ["epoch", "kind", "dump", "dirty", "shipped B", "new B", "depth"],
        rows,
    ))

    failures = 0
    live = chain.live_epochs()
    for epoch in live:
        snap = workload.at_epoch(epoch)
        for rank in range(args.n):
            data, _report = service.restore(tenant, rank, epoch)
            if data.to_bytes() != snap.build_dataset(rank, args.n).to_bytes():
                failures += 1
                print(f"MISMATCH: epoch {epoch} rank {rank}")
    verified = len(live) * args.n
    print(f"time-travel restore: {verified - failures}/{verified} "
          f"epoch-rank restores byte-identical to the workload oracle")

    for _ in range(args.prune):
        if len(chain.live_epochs()) < 2:
            break
        outcome = service.gc(tenant)
        print(f"prune epoch {outcome.tenant_dump_id}: dropped "
              f"{outcome.chunks_dropped} distinct chunks "
              f"({outcome.bytes_reclaimed} B over all replicas), "
              f"pinned={outcome.pinned}")
    if args.compact:
        outcome = service.compact(tenant)
        if outcome.compacted:
            print(f"compact epoch {outcome.epoch}: dump {outcome.old_dump_id} "
                  f"-> {outcome.new_dump_id}, chain depth now "
                  f"{chain.depth_of(outcome.epoch)}")
        else:
            print(f"compact epoch {outcome.epoch}: already a parentless full")

    stats = service.cluster.store_stats()
    naive = full_bytes * args.epochs
    print(f"shipped {shipped_total} B across {args.epochs} epochs "
          f"({naive} B as independent fulls, "
          f"{(1 - shipped_total / naive) * 100:.0f}% saved)")
    print(f"store: {stats['physical_bytes']} B physical, "
          f"{stats['chunks']} stored chunks")
    if failures:
        raise SystemExit(1)


def cmd_serve(args) -> None:
    """Drive the multi-tenant checkpoint service over synthetic tenants.

    Registers ``--tenants`` tenants whose workloads share ``--overlap`` of
    their bytes (the cross-tenant redundancy the service dedups), submits
    ``--dumps`` rounds of dumps through the admission queue, and prints
    the per-tenant bill, cross-tenant savings, store shape and queue
    health.  ``--ranks-per-node R`` hosts the ranks R to a node in blocks,
    and every dump places its replicas off the sender's node.  ``--out``
    writes the service's ``repro.obs/run/v1`` metrics snapshot (queue
    depth, admission latency, dedup-ratio gauges).
    ``--slo`` arms the default burn-rate objectives over the service
    timeline (the report gains an SLO section); ``--top-every N``
    repaints a one-line live dashboard every N service ticks.
    """
    from repro.svc import (
        ServiceError,
        TenantQuota,
        TenantWorkload,
        build_report,
        format_service_report,
        format_top,
    )

    if args.ranks_per_node < 1:
        raise SystemExit(f"--ranks-per-node must be >= 1, not {args.ranks_per_node}")
    rank_to_node = [rank // args.ranks_per_node for rank in range(args.n)]
    service = _service(args, shard_count=args.shards, rank_to_node=rank_to_node,
                       max_inflight=args.max_inflight, attribution=args.attribution)
    print(f"placement: {args.n} ranks on {len(service.cluster.nodes)} nodes")
    quota = TenantQuota(max_logical_bytes=args.quota_bytes,
                        max_dumps_per_window=args.quota_rate)
    if args.slo:
        from repro.obs.slo import SLOEngine

        service.attach_slo(SLOEngine())
    names = [f"tenant-{i}" for i in range(args.tenants)]
    for name in names:
        service.register_tenant(name, quota=quota)
    for dump_index in range(args.dumps):
        for i, name in enumerate(names):
            workload = TenantWorkload(
                i, overlap=args.overlap, chunks_per_rank=args.chunks_per_rank,
                chunk_size=args.chunk_size, seed=args.seed, dump_index=dump_index,
            )
            try:
                service.submit(name, workload)
            except ServiceError as exc:
                print(f"rejected {name} dump {dump_index}: {exc}")
        if args.top_every:
            # Manual drain so the dashboard repaints between ticks.
            while service.queue.depth:
                service.step()
                if service.tick % args.top_every == 0:
                    print(format_top(service))
        else:
            service.drain()
    if args.gc_oldest:
        for name in names:
            outcome = service.gc(name, 0)
            print(
                f"gc {name} dump 0: dropped {outcome.chunks_dropped} "
                f"chunks ({outcome.bytes_reclaimed} B), retained "
                f"{outcome.chunks_retained} "
                f"({outcome.retained_cross_tenant} cross-tenant)"
            )
    print(format_service_report(build_report(service)))
    if args.out:
        from repro.obs import write_run

        run = service.capture_metrics(
            meta={"dumps": args.dumps, "overlap": args.overlap}
        )
        write_run(args.out, run)
        print(f"wrote {args.out}")


def cmd_slo(args) -> None:
    """Seeded bursty serve run with burn-rate SLO evaluation.

    Drives the service through ``--bursts`` seeded bursts — each submits a
    random clump of tenant dumps up front (so later ones queue), executes
    one dump per tick, then idles a random gap so the burn windows age —
    and prints the burn-rate report.  Everything the SLO engine sees is
    logical ticks, so ``--out`` writes a ``repro.obs/slo/v1`` verdict that
    is byte-identical for the same seed (the CI slo-smoke job runs this
    twice and compares); ``--timeline-out`` writes the raw
    ``repro.obs/timeline/v1`` document (wall-clock latencies included,
    excluded from the determinism contract).
    """
    import json as _json
    import random

    from repro.obs.slo import DEFAULT_OBJECTIVES, SLOEngine, format_slo_report
    from repro.svc import TenantWorkload

    service = _service(args, max_inflight=1)
    engine = SLOEngine(
        args.objective or DEFAULT_OBJECTIVES,
        windows=((8, 1.0), (4, 1.0)),
        min_samples=args.min_samples,
    )
    service.attach_slo(engine)
    names = [f"tenant-{i}" for i in range(args.tenants)]
    for name in names:
        service.register_tenant(name)
    rng = random.Random(args.seed)
    dump_index = 0
    for _burst in range(args.bursts):
        for _ in range(rng.randint(1, 2 * args.tenants)):
            tenant = rng.randrange(args.tenants)
            workload = TenantWorkload(
                tenant, overlap=args.overlap, chunks_per_rank=args.chunks_per_rank,
                chunk_size=args.chunk_size, seed=args.seed, dump_index=dump_index,
            )
            service.submit(names[tenant], workload)
            dump_index += 1
        while service.queue.depth:
            service.step()
        for _ in range(rng.randint(0, 3)):
            service.tick_idle()
    print(format_slo_report(engine, service.timeline))
    if args.out:
        verdict = engine.verdict(service.timeline)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json.dumps(verdict, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.timeline_out:
        doc = service.timeline.as_dict()
        with open(args.timeline_out, "w", encoding="utf-8") as fh:
            fh.write(_json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.timeline_out}")
    if engine.alerts and args.check:
        raise SystemExit(1)


def cmd_shuffle(args) -> None:
    runner = _runner(args.app)
    n = args.n[0]
    scale = runner.volume_scale(n)
    rows = []
    for k in args.k:
        on = runner.run(n, Strategy.COLL_DEDUP, k=k, shuffle=True).metrics.recv_max
        off = runner.run(n, Strategy.COLL_DEDUP, k=k, shuffle=False).metrics.recv_max
        saving = (1 - on / off) * 100 if off else 0.0
        rows.append([k, f"{on * scale / 1e9:.2f}", f"{off * scale / 1e9:.2f}",
                     f"{saving:.0f}%"])
    print(f"{runner.name}-{n}: max receive size (GB, paper scale)")
    print(format_table(["K", "coll-shuffle", "coll-no-shuffle", "reduction"], rows))


class _OneLineParser(argparse.ArgumentParser):
    """Argparse parser whose errors are a single stderr line + exit 2.

    The default behaviour dumps the full usage block before the error,
    which buries the actual problem (e.g. a typo'd subcommand) — scripts
    and CI logs want the one-line diagnosis.  ``add_subparsers`` inherits
    the class, so subcommand errors behave identically.
    """

    def error(self, message: str) -> "NoReturn":  # type: ignore[name-defined]
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _OneLineParser(
        prog="repro-eval",
        description="Regenerate experiments from Nicolae, IPDPS 2015.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help="Figure 2 worked example").set_defaults(func=cmd_fig2)

    def common(p):
        p.add_argument("--app", choices=("hpccg", "cm1"), default="hpccg")
        p.add_argument("--n", type=int, nargs="+", default=[64],
                       help="process counts")
        return p

    t1 = common(sub.add_parser("table1", help="Table I completion times"))
    t1.add_argument("--k", type=int, default=3)
    t1.set_defaults(func=cmd_table1)

    f3 = common(sub.add_parser("fig3a", help="Figure 3(a) unique content"))
    f3.add_argument("--k", type=int, default=3)
    f3.set_defaults(func=cmd_fig3a)

    sk = common(sub.add_parser("sweep-k", help="Figures 4(a)/5(a) K sweep"))
    sk.add_argument("--k", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    sk.set_defaults(func=cmd_sweep_k)

    sh = common(sub.add_parser("shuffle", help="Figures 4(c)/5(c) ablation"))
    sh.add_argument("--k", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    sh.set_defaults(func=cmd_shuffle)

    rp = sub.add_parser(
        "repair", help="fail nodes on a dumped cluster, then repair back to K"
    )
    _world_args(rp, n=[8], k=3, chunks_per_rank=8, chunk_size=256)
    rp.add_argument("--fail", type=int, default=2, help="nodes to fail")
    rp.set_defaults(func=cmd_repair)

    tc = sub.add_parser(
        "trace-record",
        help="record a span-level synthetic dump into a run snapshot",
    )
    _world_args(tc, n=4, k=3, chunks_per_rank=8, chunk_size=256)
    tc.add_argument(
        "--pipelined", action="store_true",
        help="double-buffered hash/exchange/write pipeline "
        "(replication only; a dead node falls back to strict phases)",
    )
    tc.add_argument(
        "--integrity", default="crypto", choices=("crypto", "fast"),
        help="fingerprint mode: sha1 (crypto) or vectorised xx128 (fast)",
    )
    tc.add_argument("--out", default="trace_run.json",
                    help="run snapshot output path")
    tc.add_argument("--perfetto", default=None,
                    help="also write Chrome trace-event JSON here")
    tc.set_defaults(func=cmd_trace_record)

    tr = sub.add_parser(
        "trace", help="analyze a run snapshot: critical path, skew, A/B diff"
    )
    tr.add_argument("file", help="run snapshot JSON (from trace-record)")
    tr.add_argument("--against", default=None,
                    help="baseline snapshot for an A/B diff")
    tr.add_argument("--top", type=int, default=None,
                    help="show only the top-N phases")
    tr.add_argument("--skew-threshold", type=float, default=1.5,
                    help="flag phases whose max/mean exceeds this")
    tr.set_defaults(func=cmd_trace)

    fz = sub.add_parser(
        "fuzz",
        help="deterministic scenario fuzzing: dump/crash/repair/restore "
        "loops checked against the invariant oracles",
    )
    fz.add_argument("--seed", type=int, default=None,
                    help="generate and run the scenario for this seed")
    fz.add_argument("--runs", type=int, default=1,
                    help="with --seed: run this many consecutive seeds")
    fz.add_argument("--replay", default=None, metavar="FILE",
                    help="replay a scenario JSON (e.g. a shrunk failure)")
    fz.add_argument("--corpus", nargs="?", const="", default=None,
                    metavar="DIR",
                    help="replay every scenario in DIR "
                    "(default: the checked-in tests/dst/corpus)")
    fz.add_argument("--backend", choices=("thread", "process"),
                    help="force one SPMD backend (default: scenario decides; "
                    "differential scenarios run both and compare)")
    fz.add_argument("--chain", action="store_true",
                    help="with --seed/--runs: scan seeds upward and keep "
                    "only checkpoint-chain scenarios")
    fz.add_argument("--inject-bug", default=None, choices=("drop-replica",),
                    help="mutation testing: inject a known bug and expect "
                    "the oracles to catch it")
    fz.add_argument("--no-shrink", action="store_true",
                    help="on failure, skip shrinking and write the "
                    "original scenario")
    fz.add_argument("--out", default=None, metavar="FILE",
                    help="write the verdict document (JSON) here")
    fz.add_argument("--scenario-out", default="dst-failure.json",
                    metavar="FILE",
                    help="where to write the (shrunk) failing scenario")
    fz.add_argument("--trace", default=None, metavar="FILE",
                    help="single scenario only: write the merged obs run "
                    "snapshot here (analyze with: repro-eval trace FILE)")
    fz.set_defaults(func=cmd_fuzz)

    ch = sub.add_parser(
        "chain",
        help="incremental checkpoint chain: delta dumps, time-travel "
        "restore, refcounted GC, compaction",
    )
    _world_args(ch, n=4, k=2, chunks_per_rank=16, chunk_size=256)
    ch.add_argument("--epochs", type=int, default=6,
                    help="epochs to dump (first is always a full)")
    ch.add_argument("--dirty-frac", type=float, default=0.15,
                    help="fraction of chunks mutated per epoch")
    ch.add_argument("--full-every", type=int, default=0, metavar="N",
                    help="insert a full dump every N epochs (0 = only "
                    "the first)")
    ch.add_argument("--prune", type=int, default=0, metavar="N",
                    help="prune the N oldest epochs after verification")
    ch.add_argument("--compact", action="store_true",
                    help="compact the tip into a synthetic full")
    ch.set_defaults(func=cmd_chain)

    sv = sub.add_parser(
        "serve",
        help="multi-tenant checkpoint service: shared sharded store, "
        "cross-tenant dedup, admission queue",
    )
    sv.add_argument("--tenants", type=int, default=2, help="tenant count")
    sv.add_argument("--dumps", type=int, default=2,
                    help="dump rounds per tenant")
    sv.add_argument("--overlap", type=float, default=0.5,
                    help="fraction of each tenant's bytes shared with "
                    "every other tenant")
    _world_args(sv, n=4, k=2, chunks_per_rank=16, chunk_size=256,
                n_help="ranks per dump")
    sv.add_argument("--ranks-per-node", type=int, default=1, metavar="R",
                    help="ranks per node, placed in blocks (ranks 0..R-1 "
                    "on node 0, ...); replicas avoid their sender's node")
    sv.add_argument("--shards", type=int, default=8,
                    help="chunk-store shards per node")
    sv.add_argument("--max-inflight", type=int, default=2,
                    help="dumps admitted per scheduler tick")
    sv.add_argument("--attribution", default="first-writer",
                    choices=("first-writer", "split"),
                    help="how shared chunks are billed across tenants")
    sv.add_argument("--quota-bytes", type=int, default=None,
                    help="per-tenant logical-byte quota (default: none)")
    sv.add_argument("--quota-rate", type=int, default=None,
                    help="per-tenant dumps per rate window (default: none)")
    sv.add_argument("--gc-oldest", action="store_true",
                    help="after all rounds, garbage-collect every "
                    "tenant's oldest dump")
    sv.add_argument("--out", default=None, metavar="FILE",
                    help="write the service metrics run snapshot here")
    sv.add_argument("--slo", action="store_true",
                    help="arm the default burn-rate objectives over the "
                    "service timeline")
    sv.add_argument("--top-every", type=int, default=0, metavar="N",
                    help="print the one-line live dashboard every N "
                    "service ticks (0 = off)")
    sv.set_defaults(func=cmd_serve)

    so = sub.add_parser(
        "slo",
        help="seeded bursty serve run with deterministic burn-rate "
        "SLO verdicts",
    )
    _world_args(so, n=4, k=2, chunks_per_rank=8, chunk_size=128,
                strategy=False, n_help="ranks per dump",
                seed_help="arrival-process seed (same seed, same verdict)")
    so.add_argument("--tenants", type=int, default=2)
    so.add_argument("--bursts", type=int, default=6,
                    help="burst rounds (each: clump of submits, drain, "
                    "idle gap)")
    so.add_argument("--overlap", type=float, default=0.5)
    so.add_argument("--min-samples", type=int, default=3,
                    help="samples a window needs before it may fire")
    so.add_argument("--objective", action="append", default=[],
                    metavar="SPEC",
                    help="objective '<op>.<field>.<stat> <cmp> <value>' "
                    "(repeatable; default: the built-in set)")
    so.add_argument("--out", default=None, metavar="FILE",
                    help="write the repro.obs/slo/v1 verdict JSON here")
    so.add_argument("--timeline-out", default=None, metavar="FILE",
                    help="write the repro.obs/timeline/v1 document here")
    so.add_argument("--check", action="store_true",
                    help="exit 1 if any alert fired")
    so.set_defaults(func=cmd_slo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its one-line error already
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        args.func(args)
    except (SimMPIError, ValueError, OSError, KeyError) as exc:
        print(f"repro-eval: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    sys.exit(main())
