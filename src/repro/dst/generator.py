"""Seeded scenario generation.

``generate_scenario(seed)`` maps an integer to one valid
:class:`~repro.dst.scenario.Scenario` using only ``random.Random(seed)`` —
no ambient entropy — so the same seed always yields the byte-identical
scenario (the first half of the fuzzer's determinism guarantee; the
executor supplies the second half).

Generation respects the constraints that make the invariant oracles sound:

* crash events (mid-dump or between-dump) are budgeted to ``K_eff - 1``
  per repair epoch, so the replica ledger's floors stay positive and the
  replication/restore checks stay armed;
* crashes pick only currently-live victims (every dump plans around the
  nodes already dead);
* mid-dump crashes kill the triggering rank's own node, the only schedule
  whose failure semantics are identical across SPMD backends;
* parity redundancy (which tolerates no dead node) is only drawn for
  crash-free, coll-dedup, non-differential scenarios;
* the repeat mode (``workload_mode="repeat"``: fulls of identical
  content) is single-tenant and never differential, a rule kept from when
  it drove a thread-only fingerprint cache so that seeds keep their
  scenarios;
* ``pipelined=True`` is only drawn for crash-free replication
  scenarios, whose every dump the pipelined path accepts (a dead node in
  the liveness snapshot falls back to the strict path), so the knob never
  silently degenerates; ``integrity`` varies freely;
* bursty arrival (whole dump-runs submitted up front, idle ``tick`` steps
  between bursts) is only drawn for multi-tenant scenarios — it is a
  service-queue property — and feeds the deterministic queue-wait SLO;
* chain mode (incremental checkpoint chains: delta dumps, prune/compact
  maintenance, time-travel restores against a per-epoch oracle) is drawn
  for any number of tenants, always starts with a full dump, and keeps a
  tenant's prune steps behind two of its live epochs, so no tenant's last
  dump is ever collected (DESIGN.md "dst: one interpreter, one system").
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.dst.scenario import (
    MidDumpCrash,
    Scenario,
    Step,
    WorkloadSpec,
)

#: compression codecs the generator may draw (must exist in
#: ``repro.compress.codecs``)
COMPRESS_CHOICES = (None, None, None, "zlib-1", "rle")


def generate_scenario(seed: int) -> Scenario:
    """The deterministic scenario of ``seed``."""
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4, 4, 5, 6))
    k = rng.choice((1, 2, 2, 3, 3, 4))
    k_eff = min(k, n)
    chunk_size = rng.choice((32, 64, 128))
    chunks_per_rank = rng.randint(2, 8)
    # Mostly non-truncating; sometimes small enough to exercise the HMERGE
    # F-cap on the reduction path.
    f_threshold = rng.choice((4096, 4096, 4096, 8, 4))
    strategy = rng.choice(
        ("coll-dedup", "coll-dedup", "coll-dedup", "local-dedup", "no-dedup")
    )
    rng.random()  # retired draw (batched dump), kept so seeds keep their scenarios
    shuffle = rng.random() < 0.7
    compress = rng.choice(COMPRESS_CHOICES)
    workload = WorkloadSpec(
        frac_global=rng.choice((0.0, 0.2, 0.4)),
        frac_zero=rng.choice((0.0, 0.1, 0.2)),
        frac_local_dup=rng.choice((0.0, 0.2)),
        local_dup_degree=rng.choice((2, 3)),
    )

    parity = strategy == "coll-dedup" and rng.random() < 0.12
    repeat = not parity and rng.random() < 0.15
    differential = (
        not parity and not repeat and rng.random() < 0.35
    )

    n_dumps = rng.randint(1, 3)
    steps: List[Step] = []
    if parity:
        # Parity scenarios are crash-free: stripe-margin accounting, not the
        # replica ledger, is their oracle.  The pipeline only engages for
        # replication, so the knob stays off here; integrity still varies.
        steps = [Step("dump") for _ in range(n_dumps)]
        return Scenario(
            seed=seed, n_ranks=n, k=k, chunk_size=chunk_size,
            chunks_per_rank=chunks_per_rank, f_threshold=f_threshold,
            strategy=strategy, shuffle=shuffle,
            redundancy="parity", compress=compress,
            integrity=rng.choice(("crypto", "crypto", "fast")),
            workload_mode="fresh", workload=workload,
            steps=tuple(steps), differential=False,
        )

    alive = [True] * n
    crash_budget = max(0, k_eff - 1)
    any_crash = False

    def live_nodes() -> List[int]:
        return [i for i, a in enumerate(alive) if a]

    def draw_victim(probability: float) -> Optional[int]:
        """Kill a live node with ``probability`` while the crash budget
        lasts and more than two nodes would stay; the victim or None."""
        nonlocal crash_budget, any_crash
        if not (
            crash_budget > 0
            and len(live_nodes()) > 2
            and rng.random() < probability
        ):
            return None
        victim = rng.choice(live_nodes())
        alive[victim] = False
        crash_budget -= 1
        any_crash = True
        return victim

    def draw_mid_dump_crash(probability: float) -> Optional[MidDumpCrash]:
        victim, phases = draw_victim(probability), ("exchange", "write")
        return None if victim is None else MidDumpCrash(
            node=victim, phase=rng.choice(phases)
        )

    for d in range(n_dumps):
        # Between-step events before every dump but the first.
        if d > 0:
            victim = draw_victim(0.45)
            if victim is not None:
                steps.append(Step("crash", node=victim))
            if any_crash and rng.random() < 0.4:
                steps.append(Step("repair"))
                crash_budget = max(0, k_eff - 1)
        steps.append(Step("dump", crash=draw_mid_dump_crash(0.3)))
    # Sometimes end with a repair so the final state is audited post-heal.
    if any_crash and rng.random() < 0.5:
        steps.append(Step("repair"))

    # New dimensions draw last so older seeds keep their step schedules.
    # Pipelined dumps need replication and every node alive (dump.py falls
    # back to strict otherwise), so the knob is gated on crashes — a drawn
    # True always engages — and on a retired draw (degraded mode's, taken
    # only without crashes as it was) so seeds keep their scenarios.
    strict = any_crash or rng.random() < 0.2
    pipelined = rng.random() < 0.35 and not strict
    integrity = rng.choice(("crypto", "crypto", "fast"))

    # Store sharding and multi-tenancy draw after everything else (same
    # stability rule).  The sharded store must be observably identical to
    # the flat one, so shard_count varies freely; multi-tenancy excludes
    # the repeat mode (a multi-tenant dump's content is per tenant).
    shard_count = rng.choice((1, 1, 1, 2, 8))
    tenants = 1
    tenant_overlap = 0.5
    if not repeat and rng.random() < 0.3:
        tenants = rng.choice((2, 2, 3))
        tenant_overlap = rng.choice((0.25, 0.5, 0.75, 1.0))
        # Reassign dump steps across tenants and sometimes GC a tenant's
        # oldest live dump right after it gained one — the schedule that
        # exercises shared-chunk survival under per-tenant GC.
        tenant_steps: List[Step] = []
        live = {t: 0 for t in range(tenants)}
        for step in steps:
            if step.op != "dump":
                tenant_steps.append(step)
                continue
            t = rng.randrange(tenants)
            tenant_steps.append(Step("dump", crash=step.crash, tenant=t))
            live[t] += 1
            if live[t] > 0 and rng.random() < 0.25:
                tenant_steps.append(Step("gc", tenant=t))
                live[t] -= 1
        steps = tenant_steps

    rng.random()  # retired draw (batched restore), kept so seeds keep their scenarios

    # Arrival pattern draws after it (same stability rule).
    # Bursty arrival only means anything to the service path, so it is
    # gated on multi-tenancy; the burstification below inserts idle ticks
    # between Poisson-ish bursts so the queue drains and the SLO engine
    # sees both burn and recovery within one scenario.
    arrival = "steady"
    if tenants > 1 and rng.random() < 0.5:
        arrival = "bursty"
        bursty_steps: List[Step] = []
        for step in steps:
            if step.op == "dump" and bursty_steps and rng.random() < 0.5:
                # Arrival gap: geometric-ish idle stretch before this burst.
                for _ in range(rng.randint(1, 3)):
                    bursty_steps.append(Step("tick"))
            bursty_steps.append(step)
        steps = bursty_steps

    # Chain mode draws dead last (stability rule).  A chain scenario
    # replaces the step schedule wholesale: per tenant an epoch-evolving
    # workload dumped through the service as one base full plus
    # mostly-delta epochs, interleaved with prune/compact maintenance,
    # between-dump and mid-dump crashes (same K_eff - 1 budget and repair
    # reset as above) and time-travel restores checked against the
    # per-epoch oracle.  A multi-tenant scenario keeps its arrival mode and
    # draws a tenant per dump / prune / compact step; a single-tenant one
    # draws nothing new, so those seeds keep their scenarios.
    chain = not repeat and rng.random() < 0.25
    if chain:
        alive = [True] * n
        crash_budget = max(0, k_eff - 1)
        any_crash = False

        def pick_tenant() -> int:
            return rng.randrange(tenants) if tenants > 1 else 0

        first = pick_tenant()
        chain_steps: List[Step] = [Step("dump", kind="full", tenant=first)]
        live_epochs = [0] * tenants
        live_epochs[first] = 1
        for _ in range(rng.randint(3, 9)):
            victim = draw_victim(0.22)
            if victim is not None:
                chain_steps.append(Step("crash", node=victim))
                if rng.random() < 0.6:
                    chain_steps.append(Step("repair"))
                    crash_budget = max(0, k_eff - 1)
            t = pick_tenant()
            if live_epochs[t] >= 2 and rng.random() < 0.3:
                chain_steps.append(Step("prune", tenant=t))
                live_epochs[t] -= 1
            t = pick_tenant()
            if live_epochs[t] >= 1 and rng.random() < 0.15:
                chain_steps.append(Step("compact", tenant=t))
            crash = draw_mid_dump_crash(0.12)
            kind = "delta" if rng.random() < 0.7 else "full"
            t = pick_tenant()
            chain_steps.append(Step("dump", kind=kind, crash=crash, tenant=t))
            live_epochs[t] += 1
        if any_crash and rng.random() < 0.5:
            chain_steps.append(Step("repair"))
        steps = chain_steps
        # Keep the pipelined knob honest: chain crashes come after the knob
        # was drawn, and a pipelined dump falls back to strict ordering
        # once a node is dead.
        pipelined = pipelined and not any_crash

    return Scenario(
        seed=seed, n_ranks=n, k=k, chunk_size=chunk_size,
        chunks_per_rank=chunks_per_rank, f_threshold=f_threshold,
        strategy=strategy, shuffle=shuffle,
        redundancy="replication", compress=compress,
        pipelined=pipelined, integrity=integrity,
        workload_mode="repeat" if repeat else "fresh",
        workload=workload, steps=tuple(steps),
        differential=differential,
        tenants=tenants, tenant_overlap=tenant_overlap,
        shard_count=shard_count,
        arrival=arrival,
        chain=chain,
    )
