"""Sub-communicators (Comm.split): group-local ranks, collectives, windows."""

import operator

import pytest

from repro.simmpi import Window, collectives, run_spmd


class TestSplit:
    def test_groups_and_ranks(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.rank, sub.size, sub.group

        results = run_spmd(6, prog)
        for parent_rank, (rank, size, group) in enumerate(results):
            assert size == 3
            assert group == [r for r in range(6) if r % 2 == parent_rank % 2]
            assert group[rank] == parent_rank

    def test_key_reorders_group(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        results = run_spmd(4, prog)
        assert results == [3, 2, 1, 0]

    def test_group_local_point_to_point(self):
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            if sub.rank == 0:
                sub.send(("hello", comm.rank), dest=1)
                return None
            return sub.recv(source=0)

        results = run_spmd(6, prog)
        for pair_start in (0, 2, 4):
            assert results[pair_start + 1] == ("hello", pair_start)

    def test_concurrent_group_collectives(self):
        """Disjoint groups run allreduce simultaneously without cross-talk."""

        def prog(comm):
            sub = comm.split(color=comm.rank % 3)
            return collectives.allreduce(sub, comm.rank, operator.add)

        results = run_spmd(9, prog)
        for rank, value in enumerate(results):
            group = [r for r in range(9) if r % 3 == rank % 3]
            assert value == sum(group)

    def test_group_barrier_does_not_deadlock(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            for _ in range(3):
                sub.barrier()
            return True

        assert all(run_spmd(5, prog))

    def test_parent_traffic_unaffected(self):
        """Parent-tag messages must not be consumed by subcomm traffic."""

        def prog(comm):
            if comm.rank == 0:
                comm.send("parent-msg", dest=1, tag=5)
            sub = comm.split(color=0)
            collectives.allgather(sub, sub.rank)
            if comm.rank == 1:
                return comm.recv(source=0, tag=5)
            return None

        assert run_spmd(3, prog)[1] == "parent-msg"

    def test_windows_on_subcomm(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            win = Window.create(sub, 4)
            peer = (sub.rank + 1) % sub.size
            win.put(bytes([comm.rank] * 4), peer, 0)
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return view

        results = run_spmd(4, prog)
        # groups {0,2} and {1,3}: each receives its group peer's rank byte
        assert results[0] == bytes([2] * 4)
        assert results[2] == bytes([0] * 4)
        assert results[1] == bytes([3] * 4)
        assert results[3] == bytes([1] * 4)

    def test_nested_split(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 4)  # two groups of 4
            quarter = half.split(color=half.rank // 2)  # pairs
            return collectives.allreduce(quarter, comm.rank, operator.add)

        results = run_spmd(8, prog)
        assert results == [1, 1, 5, 5, 9, 9, 13, 13]

    def test_singleton_groups(self):
        def prog(comm):
            sub = comm.split(color=comm.rank)  # everyone alone
            return sub.size, collectives.allreduce(sub, comm.rank, operator.add)

        results = run_spmd(4, prog)
        assert results == [(1, r) for r in range(4)]
