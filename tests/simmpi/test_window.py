"""One-sided window semantics: creation, puts at offsets, fences, bounds."""

import array
import sys

import pytest

from repro.simmpi import Window, World, run_spmd
from repro.simmpi.errors import WindowError


class TestWindowBasics:
    def test_put_lands_at_offset(self):
        def prog(comm):
            win = Window.create(comm, 8 if comm.rank == 0 else 0)
            if comm.rank == 1:
                win.put(b"ABCD", target_rank=0, offset=4)
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return view

        results = run_spmd(2, prog)
        assert results[0] == b"\x00\x00\x00\x00ABCD"

    def test_heterogeneous_sizes(self):
        def prog(comm):
            win = Window.create(comm, comm.rank * 3)
            win.fence()
            size = win.nbytes
            win.free()
            return size

        assert run_spmd(4, prog) == [0, 3, 6, 9]

    def test_all_to_one_disjoint_regions(self):
        n = 6

        def prog(comm):
            win = Window.create(comm, n * 2 if comm.rank == 0 else 0)
            win.put(bytes([comm.rank] * 2), target_rank=0, offset=comm.rank * 2)
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return view

        results = run_spmd(n, prog)
        assert results[0] == b"".join(bytes([r] * 2) for r in range(n))

    def test_get_reads_remote(self):
        def prog(comm):
            win = Window.create(comm, 4)
            win.put(bytes([comm.rank]) * 4, target_rank=comm.rank, offset=0)
            win.fence()
            peer = (comm.rank + 1) % comm.size
            data = win.get(peer, offset=1, nbytes=2)
            win.fence()
            win.free()
            return data

        results = run_spmd(3, prog)
        assert results == [bytes([1, 1]), bytes([2, 2]), bytes([0, 0])]

    def test_local_filled_counts_bytes(self):
        def prog(comm):
            win = Window.create(comm, 10 if comm.rank == 0 else 0)
            if comm.rank != 0:
                win.put(b"xy", target_rank=0, offset=2 * (comm.rank - 1))
            win.fence()
            filled = win.local_filled()
            win.free()
            return filled

        assert run_spmd(4, prog)[0] == 6


class TestWindowErrors:
    def test_put_past_end_raises(self):
        def prog(comm):
            win = Window.create(comm, 4)
            try:
                win.put(b"12345", target_rank=comm.rank, offset=0)
            finally:
                win.fence()
                win.free()

        with pytest.raises(Exception) as exc_info:
            run_spmd(1, prog)
        assert any(
            isinstance(e, WindowError) for e in exc_info.value.failures.values()
        )

    def test_negative_offset_raises(self):
        def prog(comm):
            win = Window.create(comm, 4)
            try:
                win.put(b"a", target_rank=comm.rank, offset=-1)
            finally:
                win.fence()
                win.free()

        with pytest.raises(Exception):
            run_spmd(1, prog)

    def test_get_out_of_bounds_raises(self):
        def prog(comm):
            win = Window.create(comm, 4)
            win.fence()
            try:
                win.get(comm.rank, offset=2, nbytes=5)
            finally:
                win.free()

        with pytest.raises(Exception):
            run_spmd(1, prog)

    def test_negative_size_raises(self):
        def prog(comm):
            Window.create(comm, -1)

        with pytest.raises(Exception):
            run_spmd(1, prog)


class TestWindowTrace:
    def test_remote_put_charged_to_both(self):
        world = World(2)

        def prog(comm):
            win = Window.create(comm, 16)
            if comm.rank == 0:
                win.put(b"x" * 16, target_rank=1, offset=0)
            win.fence()
            win.free()
            return (comm.trace.sent_bytes, comm.trace.recv_bytes)

        r0, r1 = world.run(prog)
        assert r0[0] == 16
        assert r1[1] == 16

    def test_local_put_not_charged(self):
        world = World(1)

        def prog(comm):
            win = Window.create(comm, 8)
            win.put(b"local", target_rank=0, offset=0)
            win.fence()
            win.free()
            return comm.trace.sent_bytes

        assert world.run(prog) == [0]

    def test_sequential_windows_do_not_collide(self):
        def prog(comm):
            out = []
            for round_no in range(3):
                win = Window.create(comm, 1)
                peer = (comm.rank + 1) % comm.size
                win.put(bytes([round_no]), target_rank=peer, offset=0)
                win.fence()
                out.append(bytes(win.local_view()))
                win.free()
            return out

        results = run_spmd(2, prog)
        assert results[0] == [b"\x00", b"\x01", b"\x02"]


class TestPutMany:
    def test_single_region_equals_put(self):
        def prog(comm):
            win = Window.create(comm, 8 if comm.rank == 0 else 0)
            if comm.rank == 1:
                win.put_many([(4, b"ABCD")], target_rank=0)
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return view

        results = run_spmd(2, prog)
        assert results[0] == b"\x00\x00\x00\x00ABCD"

    def test_multiple_disjoint_regions(self):
        def prog(comm):
            win = Window.create(comm, 10 if comm.rank == 0 else 0)
            if comm.rank == 1:
                win.put_many([(0, b"AA"), (6, b"BB"), (3, b"C")], target_rank=0)
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return view

        results = run_spmd(2, prog)
        assert results[0] == b"AA\x00C\x00\x00BB\x00\x00"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_buffers_go_in_without_staging(self, backend):
        # A slice of the sender's reused packing buffer, a bytearray and a
        # wider-than-byte array all land byte for byte (sizes are in bytes,
        # whatever the item size), and the sender may repack its buffer as
        # soon as the call returns.
        def prog(comm):
            win = Window.create(comm, 12 if comm.rank == 0 else 0)
            if comm.rank == 1:
                sendbuf = bytearray(b"abcdWXYZ")
                win.put_many(
                    [
                        (0, memoryview(sendbuf)[:4]),
                        (4, bytearray(b"efgh")),
                        (8, array.array("I", [0x64636261])),
                    ],
                    target_rank=0,
                )
                sendbuf[:4] = b"????"
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return view

        results = run_spmd(2, prog, backend=backend, timeout=20)
        expected_word = (0x64636261).to_bytes(4, sys.byteorder)
        assert results[0] == b"abcdefgh" + expected_word

    def test_traced_as_one_message_of_total_bytes(self):
        world = World(2)

        def prog(comm):
            win = Window.create(comm, 8)
            peer = (comm.rank + 1) % comm.size
            win.put_many([(0, b"abc"), (4, b"de")], target_rank=peer)
            win.fence()
            win.free()

        world.run(prog)
        for rank in range(2):
            trace = world.comms[rank].trace.total()
            assert trace.put_msgs == 1
            assert trace.put_bytes == 5
            assert trace.recv_msgs == 1
            assert trace.recv_bytes == 5

    def test_out_of_bounds_rejected_before_any_write(self):
        def prog(comm):
            win = Window.create(comm, 4 if comm.rank == 0 else 0)
            err = None
            if comm.rank == 1:
                try:
                    win.put_many([(0, b"ok"), (3, b"overflow")], target_rank=0)
                except WindowError as exc:
                    err = exc
            win.fence()
            view = bytes(win.local_view())
            win.free()
            return err, view

        results = run_spmd(2, prog)
        assert results[1][0] is not None
        # The in-bounds part must not have been applied either.
        assert results[0][1] == b"\x00\x00\x00\x00"

    def test_empty_parts_are_a_traced_noop(self):
        world = World(2)

        def prog(comm):
            win = Window.create(comm, 4)
            peer = (comm.rank + 1) % comm.size
            win.put_many([], target_rank=peer)
            win.fence()
            win.free()

        world.run(prog)
        assert world.comms[0].trace.total().put_msgs == 0
