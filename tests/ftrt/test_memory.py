"""MemoryRegistry: per-rank registration, capture and in-place restore."""

import numpy as np
import pytest

from repro.apps.memory import MemoryRegistry
from repro.core.chunking import Dataset


class TestRegistration:
    def test_register_and_names(self):
        reg = MemoryRegistry()
        reg.register(0, "a", np.zeros(4))
        reg.register(0, "b", bytearray(8))
        reg.register(1, "a", np.zeros(2))
        assert reg.names(0) == ["a", "b"]
        assert reg.names(1) == ["a"]
        assert reg.per_rank_bytes(2, 0) == 40
        assert reg.per_rank_bytes(2, 1) == 16

    def test_duplicate_name_rejected(self):
        reg = MemoryRegistry()
        reg.register(0, "a", np.zeros(1))
        reg.register(1, "a", np.zeros(1))  # names are per rank
        with pytest.raises(ValueError):
            reg.register(0, "a", np.zeros(1))

    def test_immutable_bytes_rejected(self):
        reg = MemoryRegistry()
        with pytest.raises(TypeError):
            reg.register(0, "a", b"immutable")

    def test_readonly_array_rejected(self):
        arr = np.zeros(4)
        arr.flags.writeable = False
        with pytest.raises(TypeError):
            MemoryRegistry().register(0, "a", arr)

    def test_readonly_memoryview_rejected(self):
        # Accepted, it would only fail at restart: "cannot modify read-only
        # memory".
        with pytest.raises(TypeError, match="read-only"):
            MemoryRegistry().register(0, "a", memoryview(bytes(8)))

    def test_non_contiguous_array_rejected(self):
        # Accepted, it would be checkpointed as a copy and restored into
        # that copy, leaving the array untouched.
        arr = np.zeros((4, 3))
        with pytest.raises(TypeError, match="C-contiguous"):
            MemoryRegistry().register(0, "a", arr.T)

    def test_unregister(self):
        reg = MemoryRegistry()
        reg.register(0, "a", np.zeros(1))
        reg.unregister(0, "a")
        assert reg.names(0) == []
        with pytest.raises(KeyError):
            reg.unregister(0, "a")
        with pytest.raises(KeyError):
            reg.unregister(5, "a")


class TestCaptureRestore:
    def test_capture_reflects_current_values(self):
        reg = MemoryRegistry()
        arr = np.arange(8, dtype=np.float64)
        reg.register(0, "x", arr)
        ds = reg.build_dataset(0, 1)
        assert ds.to_bytes() == arr.tobytes()
        arr[0] = 99.0  # capture is a live view: dump reads current state
        assert reg.build_dataset(0, 1).to_bytes() == arr.tobytes()

    def test_restore_roundtrip_in_place(self):
        reg = MemoryRegistry()
        arr = np.arange(6, dtype=np.int64)
        buf = bytearray(b"hello!")
        other = np.zeros(3)
        reg.register(0, "arr", arr)
        reg.register(0, "buf", buf)
        reg.register(1, "arr", other)

        snapshot = Dataset([bytes(arr.tobytes()), bytes(buf)])
        arr[:] = -1
        buf[:] = b"XXXXXX"
        reg.restore(0, snapshot)
        assert list(arr) == [0, 1, 2, 3, 4, 5]
        assert buf == b"hello!"
        assert not other.any()  # another rank's regions are untouched

    def test_restore_segment_count_mismatch(self):
        reg = MemoryRegistry()
        reg.register(0, "a", np.zeros(2))
        with pytest.raises(ValueError, match="mismatch"):
            reg.restore(0, Dataset([b"x", b"y"]))
        with pytest.raises(ValueError, match="mismatch"):
            reg.restore(1, Dataset([b"x"]))  # nothing registered on rank 1

    def test_restore_size_mismatch(self):
        reg = MemoryRegistry()
        reg.register(0, "a", np.zeros(2))
        with pytest.raises(ValueError, match="size changed"):
            reg.restore(0, Dataset([b"abc"]))
