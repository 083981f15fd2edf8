#!/usr/bin/env python
"""CM1 hurricane: weak-scaled stencil simulation with interval checkpoints.

Sixteen ranks (4x4 grid) integrate a vortex for 70 steps, checkpointing
every 30 — the paper's CM1 configuration, scaled down.  Only the ranks the
storm touches carry unique data; calm subdomains are exact-zero
perturbations whose pages deduplicate everywhere, and the base-state
tables are identical on every rank.  The example shows how much of each
checkpoint each strategy would move, then restarts mid-run after failures.

Every rank's model state is registered with a ``MemoryRegistry`` and each
checkpoint is the next delta epoch of a checkpoint-service tenant.  The
per-rank models never touch a communicator, so one loop steps them all.

Run:  python examples/hurricane_cm1.py
"""

import numpy as np

from repro import DumpConfig, Strategy
from repro.analysis.tables import format_table, human_bytes
from repro.apps import CM1, CM1RankModel, MemoryRegistry
from repro.sim import compute_metrics, simulate_dump
from repro.svc import CheckpointService

N_RANKS = 16
K = 3
NX, NY, NZ = 16, 16, 6


def build_app() -> CM1:
    return CM1(nx=NX, ny=NY, nz=NZ, n_steps=30, vortex_radius_frac=0.2)


def redundancy_report(app: CM1) -> None:
    """What each strategy identifies as unique in the step-30 checkpoint."""
    indices = app.build_indices(N_RANKS)
    active = app.active_rank_count(N_RANKS)
    print(f"Storm footprint: {active} of {N_RANKS} ranks have weather.")
    rows = []
    for strategy in Strategy:
        config = DumpConfig(replication_factor=K, strategy=strategy,
                            f_threshold=1 << 17)
        metrics = compute_metrics(indices, simulate_dump(indices, config))
        rows.append([
            strategy.value,
            f"{metrics.unique_fraction * 100:.1f}%",
            human_bytes(metrics.sent_total_bytes),
            human_bytes(metrics.recv_max),
        ])
    print(format_table(
        ["strategy", "unique content", "total replication traffic",
         "max receive"],
        rows,
    ))


def main() -> None:
    app = build_app()
    redundancy_report(app)

    print("\nRunning 70 steps with checkpoints at 30 and 60, then a "
          "2-node failure and restart...")
    config = DumpConfig(replication_factor=K, chunk_size=4096, f_threshold=1 << 17)
    service = CheckpointService(N_RANKS, config)
    service.register_tenant("cm1")
    registry = MemoryRegistry()
    models = []
    for rank in range(N_RANKS):
        ix, iy = app.placement(rank, N_RANKS)
        model = CM1RankModel(
            NX, NY, NZ, origin=(ix * NX, iy * NY), vortex=app.vortex(N_RANKS)
        )
        for name, array in model.state_arrays().items():
            registry.register(rank, name, array)
        models.append(model)

    checkpoints = []
    for step in range(1, 71):
        for model in models:
            model.step()
        if step % 30 == 0:
            service.submit("cm1", registry, kind="delta")
            checkpoints.extend(service.drain())
    final_theta = [model.fields["theta"].copy() for model in models]

    # Kill two nodes, restart from the step-60 checkpoint, redo 10 steps.
    service.cluster.fail_node(3)
    service.cluster.fail_node(11)
    for rank, model in enumerate(models):
        dataset, _report = service.restore("cm1", rank, checkpoints[-1].tenant_dump_id)
        registry.restore(rank, dataset)
        model.step(10)

    assert len(checkpoints) == 2
    assert all(
        np.array_equal(model.fields["theta"], theta)
        for model, theta in zip(models, final_theta)
    )
    stormy = sum(1 for model in models if model.active)
    delta = checkpoints[1]
    print(f"Epoch 1 (step 60) shipped {sum(r.n_chunks for r in delta.reports)} "
          f"chunks as a delta, rewriting {delta.changed_chunks} of its "
          f"{delta.total_chunks} column entries.")
    print(f"Restart reproduced the exact step-70 state on all {N_RANKS} ranks "
          f"({stormy} stormy, {N_RANKS - stormy} calm).")


if __name__ == "__main__":
    main()
