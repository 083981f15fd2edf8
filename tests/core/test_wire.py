"""Window wire format: fixed slots, roundtrips, corruption detection."""

import pytest
from hypothesis import given, strategies as st

from repro.core.wire import (
    decode_region_unique,
    decode_restore_reply,
    decode_restore_request,
    encode_records_into,
    encode_restore_reply,
    encode_restore_request,
    slot_nbytes,
)

from tests.core.reference import decode_region, encode_record

DIGEST = 20
CHUNK = 64
SLOT = slot_nbytes(DIGEST, CHUNK)


def fp_of(i):
    return bytes([i]) * DIGEST


def pack(records):
    buf = bytearray(len(records) * SLOT)
    assert encode_records_into(buf, records, DIGEST, CHUNK) == len(records)
    return bytes(buf)


class TestEncodeRecords:
    def test_slot_size_constant(self):
        assert len(pack([(fp_of(1), b"x" * CHUNK)])) == SLOT
        assert len(pack([(fp_of(1), b"x")])) == SLOT

    def test_bytes_match_reference(self):
        records = [(fp_of(i), bytes([i]) * (i + 1)) for i in range(5)]
        assert pack(records) == b"".join(
            encode_record(fp, chunk, CHUNK) for fp, chunk in records
        )

    def test_oversized_chunk_rejected(self):
        with pytest.raises(ValueError):
            pack([(fp_of(1), b"y" * (CHUNK + 1))])

    def test_wrong_digest_width_rejected(self):
        with pytest.raises(ValueError):
            pack([(b"short", b"y")])

    def test_buffer_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            encode_records_into(bytearray(SLOT), [(fp_of(1), b"a")] * 2, DIGEST, CHUNK)

    def test_start_slot_offsets_the_region(self):
        buf = bytearray(3 * SLOT)
        encode_records_into(buf, [(fp_of(7), b"q")], DIGEST, CHUNK, start_slot=2)
        assert bytes(buf[: 2 * SLOT]) == bytes(2 * SLOT)
        assert decode_region(buf, DIGEST, CHUNK, 2, 1) == [(fp_of(7), b"q")]


class TestDecodeRegionUnique:
    def test_empty_payload(self):
        pairs, mults, nbytes = decode_region_unique(
            pack([(fp_of(2), b"")]), DIGEST, CHUNK, 0, 1
        )
        assert (pairs, mults, nbytes) == ([(fp_of(2), b"")], [1], 0)

    def test_sub_region_collapses_duplicates(self):
        records = [(fp_of(i % 3), bytes([i % 3]) * (i % 3 + 1)) for i in range(6)]
        pairs, mults, nbytes = decode_region_unique(
            pack(records), DIGEST, CHUNK, 1, 4
        )
        assert pairs == [records[1], records[2], records[0]]
        assert mults == [2, 1, 1]
        assert nbytes == 2 + 3 + 1 + 2

    def test_truncated_buffer_raises(self):
        window = pack([(fp_of(1), b"a")])
        with pytest.raises(ValueError, match="truncated"):
            decode_region_unique(window[:-1], DIGEST, CHUNK, 0, 1)

    def test_corrupt_length_raises(self):
        record = bytearray(pack([(fp_of(1), b"a")]))
        record[DIGEST : DIGEST + 4] = (CHUNK + 99).to_bytes(4, "little")
        with pytest.raises(ValueError, match="corrupt"):
            decode_region_unique(bytes(record), DIGEST, CHUNK, 0, 1)

    def test_empty_region(self):
        assert decode_region_unique(b"", DIGEST, CHUNK, 0, 0) == ([], [], 0)

    def test_length_clash_names_the_slot(self):
        # A hostile window: slot 3 repeats slot 1's fingerprint with another
        # length.  Keeping the first payload and summing every length would
        # report bytes the store never accounts.
        window = pack(
            [(fp_of(1), b"a"), (fp_of(2), b"bb"), (fp_of(3), b"c"), (fp_of(2), b"b")]
        )
        with pytest.raises(ValueError, match="slot 3: length 1, but slot 1"):
            decode_region_unique(window, DIGEST, CHUNK, 0, 4)
        # the slot is named in window coordinates, whatever the region
        with pytest.raises(ValueError, match="slot 3: length 1, but slot 1"):
            decode_region_unique(window, DIGEST, CHUNK, 1, 3)
        assert decode_region_unique(window, DIGEST, CHUNK, 0, 3)[2] == 4


@given(
    st.lists(
        st.tuples(st.binary(min_size=DIGEST, max_size=DIGEST), st.binary(max_size=CHUNK)),
        max_size=10,
    )
)
def test_roundtrip_property(records):
    window = pack(records)
    assert decode_region(window, DIGEST, CHUNK, 0, len(records)) == records
    first = {}
    for slot, (fp, chunk) in enumerate(records):
        if len(first.setdefault(fp, chunk)) != len(chunk):
            # a repeat that disagrees on the length is refused at its slot
            with pytest.raises(ValueError, match=f"slot {slot}: length {len(chunk)}"):
                decode_region_unique(window, DIGEST, CHUNK, 0, len(records))
            return
    pairs, mults, nbytes = decode_region_unique(
        window, DIGEST, CHUNK, 0, len(records)
    )
    assert pairs == list(first.items())  # first payload per fp
    assert sum(mults) == len(records)
    assert nbytes == sum(len(chunk) for _fp, chunk in records)


# -- packed reduction-state codec (RMT1) ---------------------------------------


def _make_table(n_ranks=4, k=3, f=64):
    from repro.core.hmerge import MergeTable, hmerge

    tables = [
        MergeTable.from_local([fp_of(i) for i in range(rank, rank + 5)], rank, k, f)
        for rank in range(n_ranks)
    ]
    out = tables[0]
    for t in tables[1:]:
        out = hmerge(out, t)
    return out


class TestMergeTableCodec:
    def test_roundtrip_preserves_entries_and_loads(self):
        import pickle

        from repro.core.wire import decode_merge_table, encode_merge_table

        table = _make_table()
        decoded = decode_merge_table(encode_merge_table(table))
        assert decoded.entries == table.entries
        assert decoded.rank_load == table.rank_load
        assert (decoded.k, decoded.f) == (table.k, table.f)
        # MergeTable pickling routes through the same codec (__reduce__),
        # which is what the reduction's sendrecv transport relies on.
        repickled = pickle.loads(pickle.dumps(table))
        assert repickled.entries == table.entries

    def test_empty_table(self):
        from repro.core.hmerge import MergeTable
        from repro.core.wire import decode_merge_table, encode_merge_table

        decoded = decode_merge_table(encode_merge_table(MergeTable(3, 8)))
        assert len(decoded) == 0
        assert (decoded.k, decoded.f) == (3, 8)

    def test_decoded_table_merges_further(self):
        """Zero-copy decoded columns are read-only views; hmerge is pure,
        so a decoded table must still be a legal merge operand."""
        from repro.core.hmerge import MergeTable, hmerge
        from repro.core.wire import decode_merge_table, encode_merge_table

        a = decode_merge_table(encode_merge_table(_make_table(n_ranks=2)))
        b = MergeTable.from_local([fp_of(9)], 3, 3, 64)
        merged = hmerge(a, b)
        merged.check_invariants()
        assert fp_of(9) in merged.entries

    def test_bad_magic_rejected(self):
        from repro.core.wire import decode_merge_table

        with pytest.raises(ValueError):
            decode_merge_table(b"XXXX" + b"\x00" * 64)


class TestRestoreRequestCodec:
    def test_roundtrip(self):
        fps = [fp_of(i) for i in (3, 0, 255, 3)]
        blob = encode_restore_request(fps)
        assert blob[:4] == b"RRQ1"
        assert decode_restore_request(blob) == fps

    def test_empty(self):
        blob = encode_restore_request([])
        assert decode_restore_request(blob) == []

    def test_trailing_null_fingerprints_survive(self):
        # Regression: an S-dtype decode null-strips trailing zero bytes —
        # a ~n/256 event per request that surfaced as missing-chunk errors
        # deep inside the reply round.
        fps = [b"\xaa" * 19 + b"\x00", b"\x00" * 20, b"\xbb" * 20]
        decoded = decode_restore_request(encode_restore_request(fps))
        assert decoded == fps
        assert all(isinstance(fp, bytes) and len(fp) == 20 for fp in decoded)

    def test_ragged_or_empty_digests_rejected_at_encode(self):
        for fps in ([b"ab", b"abc"], [b"", b""]):
            with pytest.raises(ValueError, match="RRQ1"):
                encode_restore_request(fps)

    def test_bad_magic_rejected(self):
        blob = encode_restore_request([fp_of(1)])
        for magic in (b"XXXX", b"RRQP", b"RRP1"):
            with pytest.raises(ValueError, match="RRQ1"):
                decode_restore_request(magic + blob[4:])

    def test_truncated_or_overlong_blob_rejected(self):
        blob = encode_restore_request([fp_of(1), fp_of(2)])
        for bad in (blob[:-1], blob + b"\x00", blob[:-DIGEST], blob[:8], b""):
            with pytest.raises(ValueError, match="RRQ1"):
                decode_restore_request(bad)

    def test_zero_width_digests_rejected(self):
        header_only = encode_restore_request([])
        # The column-table entry ends `count u64 | nbytes u64`: count 3, width 0.
        forged = header_only[:-16] + (3).to_bytes(8, "little") + bytes(8)
        with pytest.raises(ValueError, match="RRQ1"):
            decode_restore_request(forged)


class TestRestoreReplyCodec:
    def test_roundtrip(self):
        payloads = [b"", b"x" * 5, b"\x00" * 3, b"yz"]
        blob = encode_restore_reply(payloads)
        assert blob[:4] == b"RRP1"
        assert decode_restore_reply(blob) == payloads

    def test_empty(self):
        assert decode_restore_reply(encode_restore_reply([])) == []

    def test_generator_input(self):
        payloads = [b"aa", b"bbb"]
        blob = encode_restore_reply(p for p in payloads)
        assert decode_restore_reply(blob) == payloads

    def test_bad_magic_rejected(self):
        blob = encode_restore_reply([b"abc"])
        for magic in (b"XXXX", b"RRPP", b"RRQ1"):
            with pytest.raises(ValueError, match="RRP1"):
                decode_restore_reply(magic + blob[4:])

    def test_truncated_reply_is_an_error_not_short_data(self):
        # Regression: slicing past the end of the blob used to hand
        # [b"abcde", b""] to reassembly.
        blob = encode_restore_reply([b"abcde", b"wxyz"])
        for bad in (blob[:-4], blob[:-1], blob + b"\x00", blob[:10], blob[:3], b""):
            with pytest.raises(ValueError, match="RRP1"):
                decode_restore_reply(bad)

    def test_corrupt_length_column_rejected(self):
        blob = bytearray(encode_restore_reply([b"abcde", b"wxyz"]))
        ends = len(blob) - 9 - 16  # two u64 end offsets ahead of the 9 payload bytes
        for first, last in ((10, 9), (5, 8), (5, 10)):  # falling, short, long
            blob[ends : ends + 16] = first.to_bytes(8, "little") + last.to_bytes(8, "little")
            with pytest.raises(ValueError, match="RRP1"):
                decode_restore_reply(bytes(blob))

    def test_oversized_payload_rejected_at_encode(self):
        # No u32 length field is left to overflow; what encode still refuses
        # is an item whose len() is not the bytes it contributes.
        class Huge(bytes):
            def __len__(self):
                return 1 << 32

        with pytest.raises(ValueError, match="RRP1"):
            encode_restore_reply([Huge()])
