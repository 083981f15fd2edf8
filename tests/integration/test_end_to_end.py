"""End-to-end: real mini-apps checkpointing through the full stack, with
failures, restarts and cross-strategy consistency."""

import numpy as np
import pytest

from repro.apps.cm1 import CM1RankModel, VortexSpec
from repro.apps.hpccg import HPCCGRankSolver
from repro.core import DumpConfig, Strategy
from repro.ftrt import CheckpointRuntime
from repro.simmpi import World
from repro.storage import Cluster, FailureInjector


class TestHPCCGCheckpointRestart:
    """Run real CG on every rank, checkpoint mid-solve, kill nodes, restart,
    and verify the solve continues to the same answer."""

    N = 4
    K = 3

    def test_restart_resumes_identical_trajectory(self):
        cluster = Cluster(self.N)
        cfg = DumpConfig(replication_factor=self.K, chunk_size=256,
                         f_threshold=8192)

        def prog(comm):
            solver = HPCCGRankSolver(6, 6, 6)
            rt = CheckpointRuntime(comm, cluster, cfg, interval=10)
            for name, arr in solver.solver_arrays().items():
                if name != "indices":
                    rt.memory.register(name, arr)
            rt.memory.register("indices", solver.indices)

            solver.iterate(10)
            rt.maybe_checkpoint(10)
            solver.iterate(10)  # work to be lost
            reference_x = solver.x.copy()

            # Disaster strikes: kill K-1 nodes (once, via rank 0).
            comm.barrier()
            if comm.rank == 0:
                FailureInjector(cluster, seed=5).fail_random_nodes(self.K - 1)
            comm.barrier()

            rt.restart()  # back to iteration 10
            # The CG scalar state (_rs_old) must be re-derived on restart.
            solver._rs_old = float(solver.r @ solver.r)
            solver.iterate(10)  # redo the lost work
            return np.allclose(solver.x, reference_x, rtol=1e-8)

        assert all(World(self.N).run(prog))


class TestCM1CheckpointRestart:
    def test_two_interval_checkpoints_like_paper(self):
        """70 steps, checkpoint every 30 (the paper's CM1 configuration,
        scaled down)."""
        n = 4
        cluster = Cluster(n)
        cfg = DumpConfig(replication_factor=2, chunk_size=256, f_threshold=8192)

        def prog(comm):
            px = 2
            ix, iy = comm.rank % px, comm.rank // px
            vortex = VortexSpec(center_x=16, center_y=16, radius=10)
            model = CM1RankModel(16, 16, 4, origin=(ix * 16, iy * 16), vortex=vortex)
            rt = CheckpointRuntime(comm, cluster, cfg, interval=30)
            for name, arr in model.state_arrays().items():
                rt.memory.register(name, arr)
            for step in range(1, 71):
                model.step()
                rt.maybe_checkpoint(step)
            state_at_70 = model.fields["theta"].copy()
            rt.restart()  # latest checkpoint: step 60
            model.step(10)
            return np.array_equal(model.fields["theta"], state_at_70), rt.stats

        results = World(n).run(prog)
        for same, stats in results:
            assert same
            assert stats.checkpoints_taken == 2


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
