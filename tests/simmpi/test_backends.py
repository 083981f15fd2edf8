"""Execution-backend layer: selection/normalization, the process backend's
p2p/collectives/windows, crash surfacing and environment overrides."""

import os
import queue
import time

import pytest

from repro.simmpi import (
    BACKENDS,
    DeadlockError,
    PeerFailedError,
    ProcessWorld,
    RankCrashError,
    Window,
    World,
    WorldError,
    collectives,
    create_world,
    normalize_backend,
    resolve_timeout,
    run_spmd,
)
from repro.simmpi.backend import BACKEND_ENV, DEFAULT_TIMEOUT, TIMEOUT_ENV, world_class
from tests.conftest import own_shm_segments


class TestBackendRegistry:
    def test_normalize_aliases(self):
        assert normalize_backend("thread") == "thread"
        assert normalize_backend("threads") == "thread"
        assert normalize_backend("threading") == "thread"
        assert normalize_backend("process") == "process"
        assert normalize_backend("processes") == "process"
        assert normalize_backend("proc") == "process"
        assert normalize_backend("mp") == "process"
        assert normalize_backend("PROCESS") == "process"

    def test_normalize_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert normalize_backend(None) == "thread"

    def test_normalize_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert normalize_backend(None) == "process"
        # An explicit argument beats the environment.
        assert normalize_backend("thread") == "thread"

    def test_normalize_rejects_unknown(self):
        from repro.simmpi.errors import SimMPIError

        with pytest.raises(SimMPIError, match="unknown SPMD backend"):
            normalize_backend("mpi4py")

    def test_world_class_mapping(self):
        assert world_class("thread") is World
        assert world_class("process") is ProcessWorld
        assert tuple(BACKENDS) == ("thread", "process")

    def test_create_world(self):
        assert isinstance(create_world(2), World)
        assert isinstance(create_world(2, backend="process"), ProcessWorld)
        assert create_world(2, backend="process", timeout=7.5).timeout == 7.5

    def test_backend_names(self):
        assert World.backend_name == "thread"
        assert ProcessWorld.backend_name == "process"


class TestTimeoutResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "123")
        assert resolve_timeout(5.0) == 5.0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "42.5")
        assert resolve_timeout(None) == 42.5

    def test_default(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert resolve_timeout(None) == DEFAULT_TIMEOUT

    def test_invalid_env_rejected(self, monkeypatch):
        from repro.simmpi.errors import SimMPIError

        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(SimMPIError, match=TIMEOUT_ENV):
            resolve_timeout(None)
        monkeypatch.setenv(TIMEOUT_ENV, "-3")
        with pytest.raises(SimMPIError, match="must be > 0"):
            resolve_timeout(None)

    def test_world_reads_env(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "11")
        assert World(2).timeout == 11.0
        assert ProcessWorld(2).timeout == 11.0

    def test_run_spmd_timeout_passthrough(self):
        # A too-short timeout must surface as DeadlockError, not a hang.
        def stuck(comm):
            if comm.rank == 0:
                comm.recv(1, tag=99)  # never sent
            return comm.rank

        with pytest.raises(WorldError) as err:
            run_spmd(2, stuck, timeout=0.3)
        assert any(
            isinstance(e, DeadlockError) for e in err.value.failures.values()
        )


class TestRootCauseReporting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_world_error_leads_with_the_rank_that_raised(self, backend):
        # Rank 2 raises before a fence; ranks 0 and 1 are released from the
        # aborted barrier.  Nothing timed out, and the headline must be the
        # ValueError, not the lowest rank's echo of it.
        def prog(comm):
            win = Window.create(comm, 8)
            if comm.rank == 2:
                raise ValueError("bad offset computed on rank 2")
            win.fence()

        with pytest.raises(WorldError) as err:
            run_spmd(3, prog, backend=backend, timeout=20)
        failures = err.value.failures
        assert isinstance(failures[2], ValueError)
        for rank in (0, 1):
            assert isinstance(failures[rank], PeerFailedError)
            assert "peer rank failed" in str(failures[rank])
            assert "timed out" not in str(failures[rank])
        headline = str(err.value)
        assert "ranks 0, 1, 2" in headline
        assert "first failure: ValueError('bad offset computed on rank 2')" in headline

    def test_dead_rank_wakes_a_peer_blocked_in_recv(self):
        # Thread backend: rank 0 dies while rank 1 sits in a recv nobody
        # will answer.  The recv must observe the abort instead of waiting
        # out the world timeout (the process backend still does).
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("rank 0 died")
            return comm.recv(0, tag=3)

        start = time.monotonic()
        with pytest.raises(WorldError) as err:
            run_spmd(3, prog, backend="thread", timeout=30)
        assert time.monotonic() - start < 2.0
        failures = err.value.failures
        assert isinstance(failures[0], ValueError)
        for rank in (1, 2):
            assert isinstance(failures[rank], PeerFailedError)
            assert "recv(source=0, tag=3) aborted" in str(failures[rank])
        assert "first failure: ValueError('rank 0 died')" in str(err.value)

    def test_queued_message_wins_over_the_abort(self):
        # The peer sent before it died: the receiver still gets the message.
        def prog(comm):
            if comm.rank == 0:
                comm.send("last words", 1, tag=3)
                raise ValueError("rank 0 died")
            time.sleep(0.2)  # let the abort land first
            return comm.recv(0, tag=3)

        with pytest.raises(WorldError) as err:
            run_spmd(2, prog, backend="thread", timeout=30)
        assert set(err.value.failures) == {0}

    def test_genuine_barrier_timeout_still_says_so(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1, tag=7, timeout=0.8)  # never sent
            comm.barrier()

        with pytest.raises(WorldError) as err:
            run_spmd(2, prog, timeout=0.3)
        assert "barrier timed out after 0.3s" in str(err.value.failures[1])
        assert not isinstance(err.value.failures[1], PeerFailedError)

    def test_all_secondary_falls_back_to_lowest_rank(self):
        echo = PeerFailedError("rank 1: barrier aborted")
        assert "first failure: PeerFailedError" in str(WorldError({1: echo}))


class TestProcessBackend:
    """The multiprocessing + shared_memory backend, small worlds."""

    def test_single_rank(self):
        assert run_spmd(1, lambda comm: comm.rank * 10, backend="process") == [0]

    def test_point_to_point_ring(self):
        def ring(comm):
            comm.send(("hello", comm.rank), (comm.rank + 1) % comm.size, tag=3)
            return comm.recv((comm.rank - 1) % comm.size, tag=3)

        results = run_spmd(3, ring, backend="process", timeout=30)
        assert results == [("hello", 2), ("hello", 0), ("hello", 1)]

    def test_collectives(self):
        def prog(comm):
            total = collectives.allreduce(comm, comm.rank + 1, lambda a, b: a + b)
            everyone = collectives.allgather(comm, comm.rank**2)
            word = collectives.bcast(
                comm, "spmd" if comm.rank == 1 else None, root=1
            )
            return total, everyone, word

        for total, everyone, word in run_spmd(4, prog, backend="process", timeout=30):
            assert total == 10
            assert everyone == [0, 1, 4, 9]
            assert word == "spmd"

    def test_shared_memory_window_put_and_fence(self):
        def prog(comm):
            win = Window.create(comm, 16)
            peer = (comm.rank + 1) % comm.size
            win.put(bytes([comm.rank + 1]) * 8, peer, 0)
            win.put_many([(8, b"wxyz"), (12, b"1234")], peer)
            win.fence()
            view = bytes(win.local_view())
            filled = win.local_filled()
            win.free()
            return view, filled

        results = run_spmd(3, prog, backend="process", timeout=30)
        for rank, (view, filled) in enumerate(results):
            writer = (rank - 1) % 3
            assert view == bytes([writer + 1]) * 8 + b"wxyz1234"
            assert filled == 16

    def test_window_receive_accounting_drained_at_fence(self):
        def prog(comm):
            with comm.trace.phase("exchange"):
                win = Window.create(comm, 8)
                win.put(b"A" * 8, (comm.rank + 1) % comm.size, 0)
                win.fence()
                win.free()
            c = comm.trace.counters("exchange")
            return c.put_bytes, c.recv_bytes, c.recv_msgs

        for put_b, recv_b, recv_m in run_spmd(2, prog, backend="process", timeout=30):
            assert put_b == 8
            assert recv_b == 8
            assert recv_m == 1

    def test_subcommunicator_split(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return collectives.allgather(sub, comm.rank)

        results = run_spmd(4, prog, backend="process", timeout=30)
        assert results == [[0, 2], [1, 3], [0, 2], [1, 3]]

    def test_traces_transported_to_parent(self):
        world = ProcessWorld(2, timeout=30)

        def prog(comm):
            comm.send(b"x" * 100, 1 - comm.rank, tag=1)
            comm.recv(1 - comm.rank, tag=1)
            return comm.rank

        assert world.run(prog) == [0, 1]
        for rank in range(2):
            trace = world.comms[rank].trace
            assert trace.sent_bytes == 100
            assert trace.recv_bytes == 100

    def test_no_shared_memory_leak(self):
        def prog(comm):
            win = Window.create(comm, 4096)
            win.put(b"z" * 4096, (comm.rank + 1) % comm.size, 0)
            win.fence()
            win.free()
            return True

        assert all(run_spmd(2, prog, backend="process", timeout=30))
        assert own_shm_segments() == set()

    def test_fork_state_is_isolated(self):
        # Rank-side mutation of an inherited object must not reach the parent.
        box = {"value": 0}

        def prog(comm):
            box["value"] = comm.rank + 1
            return box["value"]

        assert run_spmd(2, prog, backend="process", timeout=30) == [1, 2]
        assert box["value"] == 0


class TestProcessBackendFailures:
    def test_rank_exception_transported(self):
        def boom(comm):
            if comm.rank == 1:
                raise ValueError("deliberate failure on rank 1")
            comm.barrier()
            return comm.rank

        with pytest.raises(WorldError) as err:
            run_spmd(3, boom, backend="process", timeout=10)
        failures = err.value.failures
        assert isinstance(failures[1], ValueError)
        assert "deliberate failure" in str(failures[1])
        # Peers released from the aborted barrier report DeadlockError.
        assert all(
            isinstance(failures[r], DeadlockError) for r in (0, 2) if r in failures
        )

    def test_hard_process_death_is_rank_crash(self):
        def die(comm):
            if comm.rank == 1:
                os._exit(41)  # no exception, no result: a real crash
            comm.barrier()
            return comm.rank

        with pytest.raises(WorldError) as err:
            run_spmd(2, die, backend="process", timeout=10)
        failures = err.value.failures
        assert isinstance(failures[1], RankCrashError)
        assert "41" in str(failures[1])

    def test_unpicklable_result_reported_not_hung(self):
        def prog(comm):
            if comm.rank == 0:
                return lambda: None  # unpicklable
            return comm.rank

        with pytest.raises(WorldError) as err:
            run_spmd(2, prog, backend="process", timeout=10)
        assert 0 in err.value.failures

    def test_deadlock_detected(self):
        def stuck(comm):
            comm.recv((comm.rank + 1) % comm.size, tag=5)  # nobody sends

        with pytest.raises(WorldError) as err:
            run_spmd(2, stuck, backend="process", timeout=0.5)
        assert all(
            isinstance(e, DeadlockError) for e in err.value.failures.values()
        )

    def test_silent_exit_is_a_crash_within_the_grace(self):
        """The parent sleeps on the result pipe and the ranks' sentinels: a
        rank that ends without a report wakes it, and is a crash one grace
        later, long before the world timeout."""
        from repro.simmpi import procworld

        def vanish(comm):
            if comm.rank == 1:
                os._exit(0)  # a clean exit code is still no result
            comm.barrier()

        start = time.monotonic()
        with pytest.raises(WorldError) as err:
            run_spmd(2, vanish, backend="process", timeout=30)
        elapsed = time.monotonic() - start
        assert isinstance(err.value.failures[1], RankCrashError)
        assert procworld._CRASH_GRACE <= elapsed < procworld._CRASH_GRACE + 3.0

    def test_hung_rank_is_a_deadlock_at_the_world_timeout(self):
        from repro.simmpi import procworld

        def hang(comm):
            if comm.rank == 1:
                time.sleep(60)  # no blocking op of ours to time out
            return comm.rank

        start = time.monotonic()
        with pytest.raises(WorldError) as err:
            run_spmd(2, hang, backend="process", timeout=0.5)
        elapsed = time.monotonic() - start
        assert set(err.value.failures) == {1}
        assert isinstance(err.value.failures[1], DeadlockError)
        budget = 0.5 + procworld._COLLECT_SLACK
        assert budget <= elapsed < budget + 4.0  # straggler grace, terminate, joins

    def test_an_idle_run_waits_instead_of_polling(self, monkeypatch):
        """A run whose ranks sit in a barrier for a while wakes the parent
        for results and exits only (it slept 5 ms at a time before)."""
        import multiprocessing.connection as connection

        calls = []
        wait = connection.wait

        def counting_wait(objects, timeout=None):
            calls.append(timeout)
            return wait(objects, timeout)

        monkeypatch.setattr(connection, "wait", counting_wait)

        def idle(comm):
            time.sleep(0.3)
            comm.barrier()
            return comm.rank

        assert run_spmd(2, idle, backend="process", timeout=30) == [0, 1]
        sleeps = [timeout for timeout in calls if timeout]  # poll() waits for 0.0
        assert 1 <= len(sleeps) <= 4 and len(calls) <= 12, calls

    def test_deliver_contract_raises_queue_empty(self):
        # BaseWorld.deliver's timeout contract (comm converts to DeadlockError).
        def prog(comm):
            if comm.rank == 0:
                with pytest.raises(queue.Empty):
                    comm.world.deliver(0, 1, 7, timeout=0.1)
            return True

        assert all(run_spmd(2, prog, backend="process", timeout=10))


class TestEnvBackendSelection:
    def test_run_spmd_honours_backend_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")

        def prog(comm):
            return type(comm.world).__name__, os.getpid()

        results = run_spmd(2, prog, timeout=30)
        names = {name for name, _pid in results}
        pids = {pid for _name, pid in results}
        assert names == {"ProcessWorld"}
        assert os.getpid() not in pids and len(pids) == 2

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        results = run_spmd(2, lambda comm: os.getpid(), backend="thread")
        assert set(results) == {os.getpid()}
