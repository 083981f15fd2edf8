#!/usr/bin/env python
"""HPCCG under checkpoint-restart: the paper's first evaluation scenario.

Eight ranks run a real 27-point conjugate-gradient solve (Mantevo HPCCG's
structure, scaled down).  Every solver array is registered with a
``MemoryRegistry`` (the AC-FTE page-capture analog), and every 10
iterations the registry is checkpointed as the next delta epoch of a
checkpoint-service tenant: the first epoch is a full, later ones ship only
the chunks the solver wrote.  At iteration 20 every rank starts keeping a
residual history and registers it as one more region: the checkpoint stays
a delta and ships the new region beside the solver's writes.  The table
shows what each epoch shipped to the collective beside the column entries
it rewrote (of all its chunks).  We then kill K-1 = 2 nodes, restore every
rank from the newest epoch, redo the lost iterations, verify the
trajectory matches the uninterrupted run and repair the cluster back to K.

The per-rank solvers never touch a communicator, so one loop steps every
rank's solver.

Run:  python examples/checkpoint_restart_hpccg.py
"""

import numpy as np

from repro import DumpConfig
from repro.analysis.tables import format_table, human_bytes
from repro.apps import HPCCGRankSolver, MemoryRegistry
from repro.storage import FailureInjector
from repro.svc import CheckpointService

N_RANKS = 8
K = 3
CHECKPOINT_EVERY = 10
HISTORY_FROM = 20  # the iteration the residual history is registered
TOTAL_ITERS = 35
SUB_BLOCK = 10  # 10^3 rows per rank (the paper uses 150^3)


def main() -> None:
    config = DumpConfig(replication_factor=K, chunk_size=4096, f_threshold=1 << 17)
    service = CheckpointService(N_RANKS, config)
    service.register_tenant("hpccg")
    registry = MemoryRegistry()
    solvers = [HPCCGRankSolver(SUB_BLOCK, SUB_BLOCK, SUB_BLOCK) for _ in range(N_RANKS)]
    for rank, solver in enumerate(solvers):
        for name, array in solver.solver_arrays().items():
            registry.register(rank, name, array)
    print(f"HPCCG {SUB_BLOCK}^3 per rank on {N_RANKS} ranks, K={K}, "
          f"checkpoint every {CHECKPOINT_EVERY} of {TOTAL_ITERS} iterations")

    # Phase 1: run to completion, checkpointing on the way.
    checkpoints = []
    histories = [np.zeros(TOTAL_ITERS) for _ in solvers]
    for iteration in range(1, TOTAL_ITERS + 1):
        for solver in solvers:
            solver.iterate(1)
        if iteration == HISTORY_FROM:
            for rank, history in enumerate(histories):
                registry.register(rank, "residual_history", history)
        if iteration >= HISTORY_FROM:
            for solver, history in zip(solvers, histories):
                history[iteration - 1] = solver.residual_norm()
        if iteration % CHECKPOINT_EVERY == 0:
            service.submit("hpccg", registry, kind="delta")
            checkpoints.extend((iteration, outcome) for outcome in service.drain())
    references = [solver.x.copy() for solver in solvers]
    residual_done = solvers[0].residual_norm()

    # Phase 2: disaster — kill K-1 nodes.
    victims = FailureInjector(service.cluster, seed=2026).fail_random_nodes(K - 1)
    print(f"  !! nodes {victims} failed")

    # Phase 3: restore every rank from the newest epoch and redo the work.
    restart_at, newest = checkpoints[-1]
    for rank, solver in enumerate(solvers):
        dataset, _report = service.restore("hpccg", rank, newest.tenant_dump_id)
        registry.restore(rank, dataset)
        solver._rs_old = float(solver.r @ solver.r)  # re-derive CG scalar state
        solver.iterate(TOTAL_ITERS - restart_at)
    matches = [
        bool(np.allclose(solver.x, reference, rtol=1e-8))
        for solver, reference in zip(solvers, references)
    ]
    repair = service.repair()

    print(format_table(
        ["epoch", "iteration", "kind", "chunks shipped", "column entries"],
        [
            [o.tenant_dump_id, it, o.kind, sum(r.n_chunks for r in o.reports),
             f"{o.changed_chunks}/{o.total_chunks}"]
            for it, o in checkpoints
        ],
    ))
    base = checkpoints[0][1].reports
    print(format_table(
        ["rank", "ckpt size", "replicated", "stored (own+recv)",
         "chunks discarded", "trajectory match"],
        [
            [r, human_bytes(rep.dataset_bytes), human_bytes(rep.sent_bytes),
             human_bytes(rep.stored_bytes + rep.received_bytes),
             rep.discarded_chunks, "yes" if match else "NO"]
            for r, (rep, match) in enumerate(zip(base, matches))
        ],
    ))
    assert all(matches)
    assert [o.kind for _it, o in checkpoints] == ["full", "delta", "delta"]
    assert repair.complete and not repair.lost_chunks
    print(f"\nAll ranks resumed from iteration {restart_at} and reconverged "
          f"(final residual {residual_done:.2e}); repair re-replicated "
          f"{repair.chunks_moved} chunks back to K={K}, losing none.")
    print("Note the discarded chunks of the full epoch: interior ranks found "
          "their matrix already replicated on other ranks — the paper's "
          "'natural replicas'.")


if __name__ == "__main__":
    main()
