"""The exchange's send/receive pair against the naive reference codec.

Production encodes a partner's region straight into a view of that
partner's window (``Window.put_view`` + ``encode_records_into``) and decodes
it in place out of ``Window.local_view`` (``decode_region_unique``).  The
reference is ``encode_record`` / ``decode_region`` in
``tests/core/reference.py``: one slot at a time, through ``bytes``.  Every
test runs on the thread and the process world.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wire import decode_region_unique, encode_records_into, slot_nbytes
from repro.simmpi import Window, run_spmd
from repro.simmpi.errors import PeerFailedError, WindowError, WorldError

from tests.core.reference import decode_region, encode_record

DIGEST = 20
CHUNK = 48
SLOT = slot_nbytes(DIGEST, CHUNK)
N = 3
BACKENDS = ("thread", "process")

#: Fingerprints a numpy S-dtype would truncate (trailing NULs), an all-zero
#: one, and ordinary ones; few enough that regions repeat them heavily.
FINGERPRINTS = [
    b"\xaa" * 19 + b"\x00",
    b"\x00" * DIGEST,
    b"\x01" + b"\x00" * 19,
] + [bytes([i]) * DIGEST for i in range(2, 8)]

payloads = st.one_of(
    st.binary(min_size=CHUNK, max_size=CHUNK),  # uniform, full-size
    st.binary(min_size=0, max_size=CHUNK),  # ragged
    st.just(b""),  # zero-length
    st.binary(min_size=1, max_size=7),  # short tail
)
#: content addressing: one payload per fingerprint, whatever region it is in
pools = st.fixed_dictionaries({fp: payloads for fp in FINGERPRINTS})
#: who sends how many records to whom; row = sender, column = target
shapes = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), min_size=N, max_size=N),
    min_size=N,
    max_size=N,
)


def exchange(comm, regions):
    """Every rank sends ``regions[rank][target]`` to each target, at the
    prefix-sum offsets ``CALC_OFF`` would give it.  Returns what this rank
    received, decoded per sender, plus its raw window and accounting."""
    rank = comm.rank
    base = [
        [sum(len(regions[s][t]) for s in range(sender)) for t in range(N)]
        for sender in range(N)
    ]
    slots = sum(len(regions[s][rank]) for s in range(N))
    win = Window.create(comm, slots * SLOT)
    for target in range(N):
        records = regions[rank][target]
        view = win.put_view(target, base[rank][target] * SLOT, len(records) * SLOT)
        assert encode_records_into(view, records, DIGEST, CHUNK) == len(records)
    win.fence()
    incoming = win.local_view()
    decoded = [
        decode_region_unique(
            incoming, DIGEST, CHUNK, base[sender][rank], len(regions[sender][rank])
        )
        for sender in range(N)
    ]
    raw = bytes(incoming)
    filled = win.local_filled()
    win.free()
    total = comm.trace.total()
    return decoded, raw, filled, (total.put_msgs, total.put_bytes, total.recv_msgs)


def first_occurrences(records):
    first, counts = {}, {}
    for fp, payload in records:
        first.setdefault(fp, payload)
        counts[fp] = counts.get(fp, 0) + 1
    return list(first.items()), list(counts.values())


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12)
@given(pool=pools, shape=shapes, data=st.data())
def test_exchange_matches_reference(backend, pool, shape, data):
    fps = st.sampled_from(FINGERPRINTS)
    regions = [
        [
            [(fp, pool[fp]) for fp in data.draw(st.lists(fps, min_size=n, max_size=n))]
            for n in row
        ]
        for row in shape
    ]
    results = run_spmd(N, exchange, regions, backend=backend, timeout=30)
    for rank, (decoded, raw, filled, (put_msgs, put_bytes, recv_msgs)) in enumerate(
        results
    ):
        landed = [rec for sender in range(N) for rec in regions[sender][rank]]
        # The window holds exactly what the naive encoder would have written.
        assert raw == b"".join(encode_record(fp, p, CHUNK) for fp, p in landed)
        assert decode_region(raw, DIGEST, CHUNK, 0, len(landed)) == landed
        assert filled == len(raw)
        for sender, (pairs, mults, nbytes) in enumerate(decoded):
            records = regions[sender][rank]
            assert (pairs, mults) == first_occurrences(records)
            assert nbytes == sum(len(p) for _fp, p in records)
            assert all(type(fp) is bytes and type(p) is bytes for fp, p in pairs)
        # One put per non-empty remote region, traced on both sides.
        sent = [len(regions[rank][t]) for t in range(N) if t != rank]
        assert put_msgs == sum(1 for n in sent if n)
        assert put_bytes == sum(sent) * SLOT
        assert recv_msgs == sum(
            1 for s in range(N) if s != rank and regions[s][rank]
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestViewContract:
    def test_write_past_the_window_is_a_window_error(self, backend):
        def prog(comm):
            win = Window.create(comm, 2 * SLOT)
            peer = (comm.rank + 1) % comm.size
            errors = []
            for offset, nbytes in ((SLOT, 2 * SLOT), (-SLOT, SLOT), (3 * SLOT, 0)):
                try:
                    win.put_view(peer, offset, nbytes)
                except WindowError as exc:
                    errors.append(str(exc))
            # A refused view counts for nothing.
            win.fence()
            filled = win.local_filled()
            win.free()
            return errors, filled, comm.trace.total().put_msgs

        for errors, filled, put_msgs in run_spmd(2, prog, backend=backend, timeout=30):
            assert len(errors) == 3
            assert all("exceeds rank" in message for message in errors)
            assert (filled, put_msgs) == (0, 0)

    def test_encoder_cannot_write_past_its_view(self, backend):
        def prog(comm):
            win = Window.create(comm, 2 * SLOT)
            view = win.put_view((comm.rank + 1) % comm.size, 0, SLOT)
            try:
                encode_records_into(
                    view, [(FINGERPRINTS[0], b"a")] * 2, DIGEST, CHUNK
                )
            except ValueError as exc:
                message = str(exc)
            win.fence()
            untouched = bytes(win.local_view())
            win.free()
            return message, untouched

        for message, untouched in run_spmd(2, prog, backend=backend, timeout=30):
            assert "overflows" in message
            assert untouched == bytes(2 * SLOT)

    def test_corrupt_length_is_a_value_error(self, backend):
        def prog(comm):
            win = Window.create(comm, SLOT)
            view = win.put_view((comm.rank + 1) % comm.size, 0, SLOT)
            encode_records_into(view, [(FINGERPRINTS[0], b"abc")], DIGEST, CHUNK)
            struct.pack_into("<I", view, DIGEST, CHUNK + 1)
            win.fence()
            try:
                decode_region_unique(win.local_view(), DIGEST, CHUNK, 0, 1)
            except ValueError as exc:
                message = str(exc)
            # The traceback above no longer pins the window.
            win.free()
            return message

        for message in run_spmd(2, prog, backend=backend, timeout=30):
            assert "corrupt record in slot 0" in message

    def test_truncated_window_is_a_value_error(self, backend):
        def prog(comm):
            win = Window.create(comm, SLOT)
            win.fence()
            try:
                decode_region_unique(win.local_view(), DIGEST, CHUNK, 0, 2)
            except ValueError as exc:
                message = str(exc)
            win.free()
            return message

        for message in run_spmd(2, prog, backend=backend, timeout=30):
            assert "truncated: slot 1" in message

    def test_empty_partner_region(self, backend):
        def prog(comm):
            win = Window.create(comm, 0)
            view = win.put_view((comm.rank + 1) % comm.size, 0, 0)
            packed = encode_records_into(view, [], DIGEST, CHUNK)
            win.fence()
            decoded = decode_region_unique(win.local_view(), DIGEST, CHUNK, 0, 0)
            win.free()
            return packed, decoded, comm.trace.total().put_msgs

        for result in run_spmd(2, prog, backend=backend, timeout=30):
            assert result == (0, ([], [], 0), 0)

    def test_view_is_the_window_until_free(self, backend):
        def prog(comm):
            win = Window.create(comm, 8)
            peer = (comm.rank + 1) % comm.size
            early = win.local_view()  # taken before anything landed
            win.put_view(peer, 0, 4)[:] = bytes([comm.rank + 1]) * 4
            win.put(b"tail", peer, 4)
            win.fence()
            late = win.local_view()
            seen = bytes(early), bytes(late), late.readonly
            try:
                late[0] = 0
            except TypeError:
                seen += ("read-only",)
            win.free()
            for view in (early, late):
                try:
                    view[0]
                except ValueError:
                    seen += ("released",)
            return seen

        for rank, seen in enumerate(run_spmd(2, prog, backend=backend, timeout=30)):
            expected = bytes([(rank - 1) % 2 + 1]) * 4 + b"tail"
            assert seen == (expected, expected, True, "read-only", "released", "released")

    def test_array_outliving_free_is_a_window_error(self, backend):
        def prog(comm):
            win = Window.create(comm, 8)
            win.fence()
            pinned = np.frombuffer(win.local_view(), dtype=np.uint8)
            win.free()
            return int(pinned[0])

        with pytest.raises(WorldError) as exc_info:
            run_spmd(2, prog, backend=backend, timeout=30)
        # The first rank to fail may abort the barrier its peer is leaving.
        failures = list(exc_info.value.failures.values())
        assert all(isinstance(exc, (WindowError, PeerFailedError)) for exc in failures)
        assert any(
            isinstance(exc, WindowError) and "still alive" in str(exc)
            for exc in failures
        )
