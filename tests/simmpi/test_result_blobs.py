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
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.simmpi.procworld import ProcessWorld
from repro.simmpi.world import World
from tests.conftest import own_shm_segments


def _stage(comm, payloads):
    blob = payloads[comm.rank]
    return comm.world.stage_result_blob(comm.rank, blob)


def _stage_written(comm, payloads):
    """The primitive itself: the world makes the buffer, the rank fills it."""
    blob = payloads[comm.rank]

    def fill(view):
        assert not view.readonly and view.nbytes == len(blob)
        view[:] = blob

    return comm.world.stage_result(comm.rank, len(blob), fill)


def _run_script(tmp_path, body, **kwargs):
    """Run ``body`` as a process of its own against this checkout's ``src``."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(body))
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen(
        [sys.executable, str(script)], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs,
    )


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

    def test_stage_result_fills_a_buffer_of_the_asked_size(self):
        world = World(2, timeout=30)
        payloads = [b"", b"gamma" * 50]
        for rank, handle in enumerate(world.run(_stage_written, payloads)):
            with world.open_result_blob(handle) as buf:
                assert bytes(buf) == payloads[rank]


class TestProcessTransport:
    def test_stage_result_round_trip(self):
        """The rank writes into the segment itself; the parent's buffer is a
        read-only view of the mapping whose name is gone as soon as it is
        mapped, and a view kept past the ``with`` block stays readable."""
        world = ProcessWorld(2, timeout=60)
        payloads = [b"", bytes(range(256)) * 40]
        handles = world.run(_stage_written, payloads)
        kept = []
        for rank, handle in enumerate(handles):
            with world.open_result_blob(handle) as buf:
                assert buf.readonly and bytes(buf) == payloads[rank]
                assert handle[1] not in os.listdir("/dev/shm"), "unlinked at map"
                kept.append(buf[:16])
        assert _shm_files(world) == []
        assert [bytes(view) for view in kept] == [p[:16] for p in payloads]

    def test_stage_result_falls_back_to_inline_bytes(self, monkeypatch):
        """No segment to be had: the filled bytes travel in the handle."""
        from repro.simmpi import procworld

        def refuse(*_args, **_kwargs):
            raise OSError("no shared memory today")

        monkeypatch.setattr(procworld.shared_memory, "SharedMemory", refuse)
        world = ProcessWorld(2, timeout=60)
        payloads = [b"left", b"right" * 300]
        handles = world.run(_stage_written, payloads)
        assert handles == [("inline", payload) for payload in payloads]
        for rank, handle in enumerate(handles):
            with world.open_result_blob(handle) as buf:
                assert bytes(buf) == payloads[rank]

    def test_without_dev_shm_the_blob_is_copied_out_and_the_segment_closed(self, tmp_path):
        """The attach-through-SharedMemory branch of ``open_result_blob``, in
        a process of its own: before 3.13 it starts a resource tracker that
        forks of this one should not inherit."""
        proc = _run_script(tmp_path, """
            import builtins, os
            from repro.simmpi import procworld

            def no_dev_shm(path, *args, **kwargs):
                if str(path).startswith("/dev/shm/"):
                    raise FileNotFoundError(path)
                return builtins.open(path, *args, **kwargs)

            world = procworld.ProcessWorld(2, timeout=60)
            blobs = [b"", bytes(range(256)) * 20]
            handles = world.run(lambda comm: comm.world.stage_result_blob(comm.rank, blobs[comm.rank]))
            procworld.open = no_dev_shm
            kept = []
            for blob, handle in zip(blobs, handles):
                with world.open_result_blob(handle) as buf:
                    assert buf.readonly and bytes(buf) == blob
                    kept.append(buf)
            assert [bytes(buf) for buf in kept] == blobs
            assert not [n for n in os.listdir("/dev/shm") if n.startswith(world._result_blob_prefix())]
            print("ok")
            """)
        out, err = proc.communicate(timeout=120)
        # Nothing on stderr: the tracker saw one register and one unregister.
        assert (proc.returncode, out, err) == (0, "ok\n", "")

    def test_a_fill_that_raises_leaves_no_segment(self):
        from repro.simmpi.errors import WorldError

        def failing(comm):
            def fill(view):
                raise RuntimeError("layout went wrong")

            return comm.world.stage_result(comm.rank, 64, fill)

        world = ProcessWorld(2, timeout=60)
        with pytest.raises(WorldError, match="layout went wrong"):
            world.run(failing)
        assert _shm_files(world) == []

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

        stage = ProcessWorld.stage_result

        def torn_on_rank_1(self, rank, nbytes, fill):
            if rank != 1:
                return stage(self, rank, nbytes, fill)
            whole = bytearray(nbytes)
            fill(memoryview(whole))

            def torn(view):
                view[:] = whole[:-3]

            return stage(self, rank, nbytes - 3, torn)

        def program(comm, cluster):
            cluster.nodes[comm.rank].chunks.put(bytes([comm.rank]) * 20, b"payload")
            return comm.rank

        monkeypatch.setattr(ProcessWorld, "stage_result", torn_on_rank_1)
        cluster = Cluster(3)
        before = own_shm_segments()
        with pytest.raises(FrameError, match=r"^RCD1: .*rank 1's cluster delta"):
            run_collective(3, program, cluster, cluster=cluster, backend="process", timeout=60)
        assert own_shm_segments() <= before
        # Rank 0's delta was whole and is applied; rank 1's is not half-applied.
        assert cluster.nodes[0].chunks.put_count == 1
        assert cluster.nodes[1].chunks.put_count == 0

    def test_a_parent_killed_while_decoding_strands_no_segment(self, tmp_path):
        """The name goes as soon as the mapping exists, so not even SIGKILL
        between ``mmap`` and the end of the decode can leave ``psr*`` (or a
        window's ``psm*``) behind: no later run of that world would sweep it."""
        proc = _run_script(tmp_path, """
            import os, signal, sys
            from repro.core.runner import run_collective
            from repro.storage import Cluster, delta_codec

            def die(buf):
                assert bytes(buf[:4]) == b"RCD1"  # mapped and readable
                sys.stdout.write("mapped\\n")
                sys.stdout.flush()
                os.kill(os.getpid(), signal.SIGKILL)

            delta_codec.decode_cluster_delta = die

            def program(comm, cluster):
                cluster.nodes[comm.rank].chunks.put(bytes([comm.rank]) * 20, b"x" * 4096)

            cluster = Cluster(2)
            run_collective(2, program, cluster, cluster=cluster, backend="process", timeout=60)
            """)
        out, _err = proc.communicate(timeout=120)
        assert proc.returncode == -signal.SIGKILL and out == "mapped\n"
        uid = f"{proc.pid:x}x"
        left = [n for n in os.listdir("/dev/shm") if n.startswith(("psr" + uid, "psm" + uid))]
        assert left == []
