"""Multi-level checkpointing: L1 service epochs + L2 PFS flushes.

The policy lives in ``examples/multilevel_checkpointing.py``
(``checkpoint`` / ``restart`` over the checkpoint service and a
:class:`ParallelFileSystem`); these tests hold it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.apps.memory import MemoryRegistry
from repro.core import DumpConfig
from repro.storage import ParallelFileSystem
from repro.storage.local_store import StorageError
from repro.svc import CheckpointService

_EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "multilevel_checkpointing.py"
_spec = importlib.util.spec_from_file_location("multilevel_checkpointing", _EXAMPLE)
multilevel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(multilevel)


def make_app(n, k, size=48):
    config = DumpConfig(replication_factor=k, chunk_size=64, f_threshold=1024)
    service = CheckpointService(n, config)
    service.register_tenant(multilevel.TENANT)
    registry = MemoryRegistry()
    # rank*1000 offset keeps every (rank, step) state bitwise distinct —
    # otherwise content addressing would find "replicas" of one rank's
    # chunks inside another rank's older checkpoints.
    states = [np.full(size, float(rank * 1000)) for rank in range(n)]
    for rank, state in enumerate(states):
        registry.register(rank, "state", state)
    return service, registry, states


def run_app(n, k, n_steps, interval, pfs_every, disaster=None):
    """Toy app; ``disaster(cluster)`` runs before the restart."""
    service, registry, states = make_app(n, k)
    pfs = ParallelFileSystem()
    epochs = []
    for step in range(1, n_steps + 1):
        for state in states:
            state += 1.0
        if step % interval == 0:
            epochs.append(multilevel.checkpoint(service, registry, pfs, pfs_every))
    restored = (None, None)
    if disaster is not None:
        disaster(service.cluster)
        restored = multilevel.restart(service, registry, pfs)
    return states, epochs, restored, pfs


class TestCheckpointing:
    def test_l2_flush_cadence(self):
        _states, epochs, _r, pfs = run_app(n=4, k=2, n_steps=12, interval=2,
                                           pfs_every=3)
        assert epochs == [0, 1, 2, 3, 4, 5]  # steps 2,4,...,12
        assert pfs.dumps_for(0) == [0, 3]
        assert pfs.latest_complete_dump(4) == 3

    def test_pfs_every_one_flushes_always(self):
        _states, _epochs, _r, pfs = run_app(n=3, k=2, n_steps=4, interval=2,
                                            pfs_every=1)
        assert pfs.stats.files_written == 3 * 2

    def test_pfs_bytes_accounted(self):
        _states, _epochs, _r, pfs = run_app(n=2, k=2, n_steps=2, interval=2,
                                            pfs_every=1)
        per_rank = 48 * 8
        assert pfs.stats.bytes_written == 2 * per_rank

    def test_invalid_pfs_every(self):
        service, registry, _states = make_app(1, 1)
        with pytest.raises(ValueError):
            multilevel.checkpoint(service, registry, ParallelFileSystem(), 0)


class TestRestartPolicy:
    def test_l1_preferred_when_recoverable(self):
        def tolerable(cluster):
            cluster.fail_node(1)  # K-1 = 1 failure: L1 survives

        states, _epochs, (epoch, levels), _pfs = run_app(
            n=4, k=2, n_steps=8, interval=2, pfs_every=2, disaster=tolerable
        )
        assert epoch == 3  # newest checkpoint (step 8)
        assert levels == ["L1"] * 4
        for rank, state in enumerate(states):
            assert np.all(state == rank * 1000 + 8)

    def test_l2_fallback_when_l1_destroyed(self):
        """More failures than K-1: some rank's L1 data is gone, so the
        group agrees on a PFS-flushed epoch; wounded ranks restore from
        L2, lucky ones still use their local L1 copy of the same epoch."""

        def catastrophic(cluster):
            # kill a rank together with its replication partner (the
            # load-aware shuffle pairs 0 with 5 here): rank 0's L1 is gone.
            cluster.fail_node(0)
            cluster.fail_node(5)

        states, _epochs, (epoch, levels), _pfs = run_app(
            n=6, k=2, n_steps=8, interval=2, pfs_every=3, disaster=catastrophic
        )
        # flushed epochs: 0 and 3; 3 is also the newest L1 checkpoint.
        assert epoch == 3  # all ranks agree on one epoch
        assert "L2" in levels  # at least one rank lost its L1 copies
        assert "L1" in levels
        for rank, state in enumerate(states):
            assert np.all(state == rank * 1000 + 8)

    def test_l2_rollback_loses_recent_work(self):
        """When a wounded rank can only restore PFS-flushed epochs, the
        whole group rolls back past newer L1-only checkpoints (the
        multi-level trade-off) — and state stays globally consistent."""

        def catastrophic(cluster):
            cluster.fail_node(0)
            cluster.fail_node(5)  # rank 0 and its partner

        # interval=2, 10 steps -> epochs 0..4 at steps 2..10;
        # pfs_every=3 -> flushed epochs 0 (step 2) and 3 (step 8).
        states, _epochs, (epoch, _levels), _pfs = run_app(
            n=6, k=2, n_steps=10, interval=2, pfs_every=3, disaster=catastrophic
        )
        assert epoch == 3  # newer epoch 4 exists on L1 but not for everyone
        for rank, state in enumerate(states):
            assert np.all(state == rank * 1000 + 8)  # steps 9-10 lost

    def test_nothing_recoverable_raises(self):
        service, registry, _states = make_app(3, 2, size=4)
        # no checkpoint ever taken; kill everything and try to restart
        for node in range(3):
            service.cluster.fail_node(node)
        with pytest.raises(StorageError):
            multilevel.restart(service, registry, ParallelFileSystem())
