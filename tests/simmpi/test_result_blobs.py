"""Out-of-band result-blob transport (stage/open/sweep).

The process backend's merge-back protocol ships each rank's packed cluster
delta through a staged shared-memory segment instead of pickling it
through the result queue; the parent reads it back by mapping the
``/dev/shm`` file directly (never via ``SharedMemory``, which would spawn
a parent-side resource tracker that later forks inherit — see
``ProcessWorld.open_result_blob``).  These tests drive the protocol the
way :func:`repro.core.runner.run_collective` does: staging happens in
forked children, open/sweep in the parent.
"""

import glob
import os

import pytest

from repro.simmpi.procworld import ProcessWorld
from repro.simmpi.world import World


def _stage(comm, payloads):
    blob = payloads[comm.rank]
    return comm.world.stage_result_blob(comm.rank, blob)


def _shm_files(world):
    return glob.glob(os.path.join("/dev/shm", world._result_blob_prefix() + "*"))


class TestThreadDefaults:
    def test_blob_is_its_own_handle(self):
        world = World(2, timeout=30)
        payloads = [b"alpha", b"beta-" * 100]
        handles = world.run(_stage, payloads)
        for rank, handle in enumerate(handles):
            with world.open_result_blob(handle) as buf:
                assert bytes(buf) == payloads[rank]
        world.sweep_result_blobs()  # no-op, must not raise


class TestProcessTransport:
    def test_child_staged_blobs_read_back_and_reclaimed(self):
        world = ProcessWorld(3, timeout=60)
        payloads = [bytes([rank]) * (1000 + rank) for rank in range(3)]
        handles = world.run(_stage, payloads)
        assert _shm_files(world), "blobs should be parked in /dev/shm"
        for rank, handle in enumerate(handles):
            kind = handle[0]
            assert kind in ("shm", "inline")
            with world.open_result_blob(handle) as buf:
                assert bytes(buf) == payloads[rank]
        # Opening is consuming: every staged segment is gone afterwards.
        assert _shm_files(world) == []

    def test_empty_blob(self):
        world = ProcessWorld(2, timeout=60)
        handles = world.run(_stage, [b"", b"x"])
        with world.open_result_blob(handles[0]) as buf:
            assert bytes(buf) == b""
        with world.open_result_blob(handles[1]) as buf:
            assert bytes(buf) == b"x"
        assert _shm_files(world) == []

    def test_sweep_reclaims_unopened_blobs(self):
        """Failure paths (a rank dies after staging) must not leak
        segments: the runner's finally and the next run() both sweep."""
        world = ProcessWorld(2, timeout=60)
        world.run(_stage, [b"left", b"behind"])
        assert len(_shm_files(world)) == 2
        world.sweep_result_blobs()
        assert _shm_files(world) == []

    def test_next_run_sweeps_previous_leftovers(self):
        world = ProcessWorld(2, timeout=60)
        world.run(_stage, [b"a" * 64, b"b" * 64])
        assert len(_shm_files(world)) == 2
        world.run(lambda comm: comm.rank)
        assert _shm_files(world) == []

    def test_inline_fallback_roundtrip(self):
        """When segment creation fails the handle degrades to inline bytes;
        the parent-side open must accept that shape unchanged."""
        world = ProcessWorld(2, timeout=60)
        with world.open_result_blob(("inline", b"fallback-bytes")) as buf:
            assert bytes(buf) == b"fallback-bytes"


class TestRunCollectiveMergeBack:
    def test_corrupt_staged_delta_names_the_rank_and_leaks_no_segment(self, monkeypatch):
        """A rank's staged RCD1 blob that arrives damaged must surface as a
        FrameError naming that rank — never a short delta folded into the
        cluster — and the failed merge-back must not strand a segment."""
        from repro.core.frame import FrameError
        from repro.core.runner import run_collective
        from repro.storage import Cluster

        stage = ProcessWorld.stage_result_blob

        def torn_on_rank_1(self, rank, blob):
            return stage(self, rank, blob[:-3] if rank == 1 else blob)

        def program(comm, cluster):
            cluster.nodes[comm.rank].chunks.put(bytes([comm.rank]) * 20, b"payload")
            return comm.rank

        monkeypatch.setattr(ProcessWorld, "stage_result_blob", torn_on_rank_1)
        cluster = Cluster(3)
        before = set(glob.glob("/dev/shm/psr*"))
        with pytest.raises(FrameError, match=r"^RCD1: .*rank 1's cluster delta"):
            run_collective(3, program, cluster, cluster=cluster, backend="process", timeout=60)
        assert set(glob.glob("/dev/shm/psr*")) <= before
        # Rank 0's delta was whole and is applied; rank 1's is not half-applied.
        assert cluster.nodes[0].chunks.put_count == 1
        assert cluster.nodes[1].chunks.put_count == 0
