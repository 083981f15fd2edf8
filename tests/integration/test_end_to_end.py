"""End-to-end: real mini-apps checkpointing through the checkpoint service,
with failures, restarts and cross-strategy consistency."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.cm1 import CM1RankModel, VortexSpec
from repro.apps.hpccg import HPCCGRankSolver
from repro.apps.memory import MemoryRegistry
from repro.core import DumpConfig, Strategy
from repro.simmpi import World
from repro.storage import Cluster, FailureInjector
from repro.svc import CheckpointService

ROOT = Path(__file__).resolve().parents[2]


def checkpoint(service, registry):
    service.submit("app", registry, kind="delta")
    (outcome,) = service.drain()
    return outcome


def restart(service, registry, epoch):
    for rank in range(service.n_ranks):
        dataset, _report = service.restore("app", rank, epoch)
        registry.restore(rank, dataset)


def app_service(n, cfg):
    service = CheckpointService(n, cfg)
    service.register_tenant("app")
    return service, MemoryRegistry()


class TestHPCCGCheckpointRestart:
    """Run real CG on every rank, checkpoint mid-solve, kill nodes, restart,
    and verify the solve continues to the same answer."""

    N = 4
    K = 3

    def test_restart_resumes_identical_trajectory(self):
        cfg = DumpConfig(replication_factor=self.K, chunk_size=256,
                         f_threshold=8192)
        service, registry = app_service(self.N, cfg)
        solvers = [HPCCGRankSolver(6, 6, 6) for _ in range(self.N)]
        for rank, solver in enumerate(solvers):
            for name, arr in solver.solver_arrays().items():
                if name != "indices":
                    registry.register(rank, name, arr)
            registry.register(rank, "indices", solver.indices)

        for solver in solvers:
            solver.iterate(10)
        epoch = checkpoint(service, registry).tenant_dump_id
        for solver in solvers:
            solver.iterate(10)  # work to be lost
        references = [solver.x.copy() for solver in solvers]

        # Disaster strikes: kill K-1 nodes.
        FailureInjector(service.cluster, seed=5).fail_random_nodes(self.K - 1)

        restart(service, registry, epoch)  # back to iteration 10
        for solver, reference in zip(solvers, references):
            # The CG scalar state (_rs_old) must be re-derived on restart.
            solver._rs_old = float(solver.r @ solver.r)
            solver.iterate(10)  # redo the lost work
            assert np.allclose(solver.x, reference, rtol=1e-8)


class TestCM1CheckpointRestart:
    def test_two_interval_checkpoints_like_paper(self):
        """70 steps, checkpoint every 30 (the paper's CM1 configuration,
        scaled down)."""
        n, px = 4, 2
        cfg = DumpConfig(replication_factor=2, chunk_size=256, f_threshold=8192)
        service, registry = app_service(n, cfg)
        vortex = VortexSpec(center_x=16, center_y=16, radius=10)
        models = []
        for rank in range(n):
            ix, iy = rank % px, rank // px
            model = CM1RankModel(16, 16, 4, origin=(ix * 16, iy * 16), vortex=vortex)
            for name, arr in model.state_arrays().items():
                registry.register(rank, name, arr)
            models.append(model)
        outcomes = []
        for step in range(1, 71):
            for model in models:
                model.step()
            if step % 30 == 0:
                outcomes.append(checkpoint(service, registry))
        states_at_70 = [model.fields["theta"].copy() for model in models]
        restart(service, registry, outcomes[-1].tenant_dump_id)  # step 60
        assert [o.kind for o in outcomes] == ["full", "delta"]
        for model, state_at_70 in zip(models, states_at_70):
            model.step(10)
            assert np.array_equal(model.fields["theta"], state_at_70)


class TestCheckpointExamples:
    """The application checkpoint examples run end to end."""

    @pytest.mark.parametrize("script", [
        "checkpoint_restart_hpccg.py",
        "hurricane_cm1.py",
        "multilevel_checkpointing.py",
    ])
    def test_example_exits_zero(self, script):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCrossStrategyConsistency:
    """All three strategies must place *the same logical data* — only the
    physical layout differs."""

    def test_restored_data_identical_across_strategies(self):
        from repro.core import dump_output, restore_dataset
        from tests.conftest import make_rank_dataset

        n = 6
        restored = {}
        for strategy in Strategy:
            cfg = DumpConfig(replication_factor=3, chunk_size=64,
                             strategy=strategy, f_threshold=4096)
            cluster = Cluster(n, dedup=(strategy is not Strategy.NO_DEDUP))
            World(n).run(
                lambda comm: dump_output(
                    comm, make_rank_dataset(comm.rank), cfg, cluster
                )
            )
            restored[strategy] = [
                restore_dataset(cluster, r)[0].to_bytes() for r in range(n)
            ]
        for rank in range(n):
            assert (
                restored[Strategy.NO_DEDUP][rank]
                == restored[Strategy.LOCAL_DEDUP][rank]
                == restored[Strategy.COLL_DEDUP][rank]
            )

    def test_storage_footprint_ordering(self):
        """Physical storage: coll < local < no-dedup on redundant data."""
        from repro.core import dump_output
        from tests.conftest import make_rank_dataset

        n = 8
        footprint = {}
        for strategy in Strategy:
            cfg = DumpConfig(replication_factor=3, chunk_size=64,
                             strategy=strategy, f_threshold=4096)
            cluster = Cluster(n, dedup=(strategy is not Strategy.NO_DEDUP))
            World(n).run(
                lambda comm: dump_output(
                    comm, make_rank_dataset(comm.rank), cfg, cluster
                )
            )
            footprint[strategy] = cluster.total_physical_bytes
        assert (
            footprint[Strategy.COLL_DEDUP]
            < footprint[Strategy.LOCAL_DEDUP]
            < footprint[Strategy.NO_DEDUP]
        )


class TestTruncatedView:
    """``f_threshold=4`` truncates every rank's table, so a chunk more than
    K ranks hold can enter the view with fewer than K designated holders
    (dst seed 938: n=4, K=3).  Every holder the view does not list keeps
    its copy then, and the simulator, which shares ``build_plan``, agrees
    with the threaded dump on every placement."""

    def test_every_chunk_keeps_k_replicas_and_the_simulator_agrees(self):
        from repro.apps.synthetic import SyntheticWorkload
        from repro.core import dump_output
        from repro.core.fingerprint import Fingerprinter
        from repro.core.local_dedup import local_dedup_batched
        from repro.sim import simulate_dump
        from tests.sim.test_driver_equivalence import COMPARED_FIELDS

        n, k, cs = 4, 3, 64
        workload = SyntheticWorkload(
            chunks_per_rank=7, chunk_size=cs, frac_global=0.2,
            frac_zero=0.2, frac_local_dup=0.2, local_dup_degree=2,
            seed=7428022,
        )
        cfg = DumpConfig(replication_factor=k, chunk_size=cs,
                         f_threshold=4, shuffle=False)
        cluster = Cluster(n)
        threaded = World(n).run(
            lambda comm: dump_output(
                comm, workload.build_dataset(comm.rank, n), cfg, cluster
            )
        )
        fpr = Fingerprinter(cfg.hash_name)
        indices = [
            local_dedup_batched(workload.build_dataset(r, n), fpr, cs)
            for r in range(n)
        ]
        simulated = simulate_dump(indices, cfg)
        for rank in range(n):
            for name in COMPARED_FIELDS:
                assert getattr(threaded[rank], name) == getattr(
                    simulated.reports[rank], name
                ), (rank, name)
        truncated = False
        for index in indices:
            truncated |= len(index.unique_fingerprints()) > cfg.f_threshold
            for fp in index.unique_fingerprints():
                assert len(cluster.locate(fp)) >= k, fp.hex()
        assert truncated
