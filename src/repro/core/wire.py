"""Wire format of chunk records inside one-sided windows.

Each window slot has a fixed size (digest + u32 payload length + payload
padded to the chunk size), so that slot offsets computed by Algorithm 3 map
linearly to byte offsets.  The fingerprint travels with the payload because
the receiver stores incoming chunks keyed by fingerprint — that is what
makes a received chunk a usable *replica* rather than anonymous bytes.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint

_LEN = struct.Struct("<I")


def slot_nbytes(digest_size: int, chunk_size: int) -> int:
    """Fixed byte size of one window slot."""
    return digest_size + _LEN.size + chunk_size


#: Records written per ``struct.pack_into`` call: bounds the format string
#: and the argument tuple, and spreads a call's fixed cost over 64 records.
_PACK_GROUP = 64


def encode_records_into(
    out,
    records: Iterable[Tuple[Fingerprint, bytes]],
    digest_size: int,
    chunk_size: int,
    start_slot: int = 0,
) -> int:
    """Pack records into consecutive slots of a writable buffer.

    ``out`` is the sender's view of its region in a partner's window
    (:meth:`repro.simmpi.window.Window.put_view`) or any other writable
    buffer.  Each slot is ``fingerprint | u32 length | payload | zero
    padding``, and every byte of it is written exactly once, straight from
    the payload ``bytes``: ``struct``'s ``s`` code copies a payload and
    zero-fills the rest of its field, so stale bytes of a reused buffer
    cannot leak into a slot.  Returns the number of records packed.

    A fingerprint that is not ``digest_size`` wide, a payload longer than
    ``chunk_size`` or a record past the end of ``out`` raises ``ValueError``
    before anything is written.
    """
    slot = slot_nbytes(digest_size, chunk_size)
    pos = start_slot * slot
    fields = []
    for fp, chunk in records:
        if len(fp) != digest_size:
            raise ValueError(
                f"fingerprint of {len(fp)}B in a {digest_size}B-digest slot"
            )
        n = len(chunk)
        if n > chunk_size:
            raise ValueError(
                f"chunk of {n}B exceeds the slot payload size {chunk_size}B"
            )
        fields += (fp, n, chunk)
    count = len(fields) // 3
    room = memoryview(out).nbytes
    if pos + count * slot > room:
        raise ValueError(
            f"record {max(0, room - pos) // slot} overflows the {room}B buffer"
        )
    record = f"{digest_size}sI{chunk_size}s"
    for lo in range(0, count, _PACK_GROUP):
        hi = min(lo + _PACK_GROUP, count)
        struct.pack_into(
            "<" + record * (hi - lo), out, pos + lo * slot, *fields[3 * lo : 3 * hi]
        )
    return count


def _record_dtype(digest_size: int, chunk_size: int) -> np.dtype:
    """A slot as a numpy record: the header fields in place, payload skipped."""
    return np.dtype(
        {
            "names": ["fp", "length"],
            "formats": [np.dtype((np.void, digest_size)), "<u4"],
            "offsets": [0, digest_size],
            "itemsize": slot_nbytes(digest_size, chunk_size),
        }
    )


def decode_region_unique(
    buffer,
    digest_size: int,
    chunk_size: int,
    start_slot: int,
    slot_count: int,
) -> Tuple[List[Tuple[Fingerprint, bytes]], List[int], int]:
    """Decode a region collapsed to its *distinct* fingerprints.

    Returns ``(pairs, multiplicities, total_payload_bytes)``: the distinct
    ``(fingerprint, payload)`` records in first-occurrence order, how many
    times each fingerprint appeared in the region, and the summed payload
    length of every record (duplicates included).

    ``buffer`` is read in place — it is the receiver's
    :meth:`~repro.simmpi.window.Window.local_view`, or any bytes-like — and
    nothing of it is copied but one ``bytes`` per distinct payload, the copy
    the store keeps.  Replicated regions are dominated by repeated
    fingerprints, which one ``np.unique`` sweep over the fingerprint column
    collapses.  Precondition (guaranteed by content addressing): slots
    sharing a fingerprint carry identical payloads.  Slot headers are
    validated in one numpy sweep over the region: a region reaching past
    the buffer or a length field above ``chunk_size`` raises ``ValueError``.
    No array over ``buffer`` outlives the call.
    """
    if slot_count <= 0:
        return [], [], 0
    slot = slot_nbytes(digest_size, chunk_size)
    base = start_slot * slot
    view = memoryview(buffer)
    if base + slot_count * slot > view.nbytes:
        short = max(start_slot, view.nbytes // slot)
        raise ValueError(
            f"window truncated: slot {short} needs {slot}B, have "
            f"{max(0, view.nbytes - short * slot)}B"
        )
    records = np.frombuffer(
        view, dtype=_record_dtype(digest_size, chunk_size), count=slot_count,
        offset=base,
    )
    lengths = records["length"]
    bad = np.flatnonzero(lengths > chunk_size)
    if bad.size:
        raise ValueError(
            f"corrupt record in slot {start_slot + int(bad[0])}: "
            f"length {int(lengths[bad[0]])}"
        )
    distinct, first_idx, counts = np.unique(
        records["fp"], return_index=True, return_counts=True
    )
    order = np.argsort(first_idx)
    first = first_idx[order]
    starts = base + first * slot + digest_size + _LEN.size
    ends = starts + lengths[first]
    payloads = [
        bytes(view[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())
    ]
    return (
        list(zip(distinct[order].tolist(), payloads)),
        counts[order].tolist(),
        int(lengths.sum()),
    )


# -- packed merge-state codec -------------------------------------------------
#
# MergeTables cross rank boundaries on every reduction round; under the
# process backend that used to mean generic pickle over the parallel numpy
# columns (per-object memo walks, column-by-column reduce protocol).  The
# packed codec below flattens a table to one header plus its four raw
# little-endian column buffers, and `MergeTable.__reduce__` routes *all*
# pickling through it — so a table travels as a single contiguous blob and
# is reconstructed with zero-copy `np.frombuffer` views on the receiving
# side.  `hmerge` is pure (never mutates its inputs), which is what makes
# the read-only frombuffer-backed columns safe.

_MT_HEADER = struct.Struct("<4sBBHIIII")
_MT_MAGIC = b"RMT1"
_MT_FLAG_NODE_OF = 1

_GV_HEADER = struct.Struct("<4sBBHI")
_GV_MAGIC = b"RGV1"


def encode_merge_table(table) -> bytes:
    """Flatten a :class:`repro.core.hmerge.MergeTable` to one packed blob:
    header + raw ``fps`` / ``freq`` / ``ranks`` / ``load_arr`` column
    buffers (little-endian), plus the optional ``node_of`` mapping."""
    n = len(table.fps)
    digest = table.digest_size
    flags = 0 if table.node_of is None else _MT_FLAG_NODE_OF
    parts = [
        _MT_HEADER.pack(
            _MT_MAGIC,
            digest,
            flags,
            table.k,
            table.f,
            n,
            len(table.load_arr),
            0 if table.node_of is None else len(table.node_of),
        )
    ]
    if n:
        parts.append(table.fps.tobytes())
        parts.append(table.freq.astype("<i8", copy=False).tobytes())
        parts.append(table.ranks.astype("<i4", copy=False).tobytes())
    parts.append(table.load_arr.astype("<i8", copy=False).tobytes())
    if table.node_of is not None:
        parts.append(
            np.asarray(table.node_of, dtype="<i8").tobytes()
        )
    return b"".join(parts)


def decode_merge_table(blob):
    """Rebuild a :class:`MergeTable` from :func:`encode_merge_table` output.

    Columns are zero-copy ``np.frombuffer`` views into ``blob`` (read-only;
    safe because :func:`repro.core.hmerge.hmerge` is pure).
    """
    from repro.core.hmerge import MergeTable, PAD

    magic, digest, flags, k, f, n, load_len, node_len = _MT_HEADER.unpack_from(
        blob, 0
    )
    if magic != _MT_MAGIC:
        raise ValueError(f"bad merge-table blob magic {magic!r}")
    table = MergeTable(k, f)
    pos = _MT_HEADER.size
    if n:
        table.fps = np.frombuffer(blob, dtype=f"S{digest}", count=n, offset=pos)
        pos += n * digest
        table.freq = np.frombuffer(blob, dtype="<i8", count=n, offset=pos)
        pos += n * 8
        table.ranks = np.frombuffer(
            blob, dtype="<i4", count=n * k, offset=pos
        ).reshape(n, k)
        pos += n * k * 4
    else:
        table.ranks = np.full((0, k), PAD, dtype=np.int32)
    table.load_arr = np.frombuffer(blob, dtype="<i8", count=load_len, offset=pos)
    pos += load_len * 8
    if flags & _MT_FLAG_NODE_OF:
        table.node_of = tuple(
            np.frombuffer(blob, dtype="<i8", count=node_len, offset=pos).tolist()
        )
    return table


def global_view_wire_nbytes(n: int, digest_size: int, designated: int) -> int:
    """The modelled wire size of a global view: digest + u32 frequency per
    entry plus u32 per designated rank — exactly the payload bytes
    :func:`encode_global_view` emits after its header/count metadata."""
    return n * (digest_size + 4) + 4 * designated


def encode_global_view(view) -> Tuple[bytes, int]:
    """Flatten a :class:`repro.core.hmerge.GlobalView` to a packed blob.

    Returns ``(blob, payload_nbytes)`` where ``payload_nbytes`` counts only
    the entry columns (fps, u32 frequencies, u32 ranks) — the number
    :attr:`GlobalView.wire_nbytes` caches — excluding the self-description
    (header + u16 rank-count column) a decoder needs.
    """
    entries = view.entries
    n = len(entries)
    digest = len(next(iter(entries))) if n else 0
    fps = bytearray(n * digest)
    freq = np.empty(n, dtype="<u4")
    counts = np.empty(n, dtype="<u2")
    rank_cols: List[Tuple[int, ...]] = []
    for i, (fp, entry) in enumerate(entries.items()):
        if len(fp) != digest:
            raise ValueError("fingerprints must have a uniform width")
        fps[i * digest : (i + 1) * digest] = fp
        if entry.freq >> 32:
            raise ValueError(f"frequency {entry.freq} exceeds the u32 wire field")
        freq[i] = entry.freq
        counts[i] = len(entry.ranks)
        rank_cols.append(entry.ranks)
    ranks = np.fromiter(
        (r for ranks in rank_cols for r in ranks), dtype="<u4"
    )
    blob = b"".join(
        (
            _GV_HEADER.pack(_GV_MAGIC, digest, 0, view.k, n),
            counts.tobytes(),
            bytes(fps),
            freq.tobytes(),
            ranks.tobytes(),
        )
    )
    payload = global_view_wire_nbytes(n, digest, int(counts.sum()))
    return blob, payload


def decode_global_view(blob):
    """Rebuild a :class:`GlobalView` from :func:`encode_global_view` output;
    ``wire_nbytes`` is restored from the decoded payload size."""
    from repro.core.hmerge import GlobalView, MergeEntry

    magic, digest, _flags, k, n = _GV_HEADER.unpack_from(blob, 0)
    if magic != _GV_MAGIC:
        raise ValueError(f"bad global-view blob magic {magic!r}")
    pos = _GV_HEADER.size
    counts = np.frombuffer(blob, dtype="<u2", count=n, offset=pos)
    pos += n * 2
    raw_fps = bytes(blob[pos : pos + n * digest])
    pos += n * digest
    freq = np.frombuffer(blob, dtype="<u4", count=n, offset=pos)
    pos += n * 4
    total_ranks = int(counts.sum())
    ranks = np.frombuffer(blob, dtype="<u4", count=total_ranks, offset=pos)
    entries = {}
    freqs = freq.tolist()
    count_list = counts.tolist()
    rank_list = ranks.tolist()
    cursor = 0
    for i in range(n):
        c = count_list[i]
        entries[raw_fps[i * digest : (i + 1) * digest]] = MergeEntry._trusted(
            freqs[i], tuple(rank_list[cursor : cursor + c])
        )
        cursor += c
    return GlobalView(
        entries=entries,
        k=k,
        wire_nbytes=global_view_wire_nbytes(n, digest, total_ranks),
    )


# -- packed restore request/reply codecs ---------------------------------------
# The collective restore's two all-to-all rounds ship these instead of
# pickled python lists: a request is the raw fingerprint column under a
# small header, a reply is a u32 length column plus the concatenated chunk
# payloads.  Decoding is a zero-copy `np.frombuffer` over the columns.
# The blobs arrive from a peer, so both decoders check every length against
# the blob before cutting it and raise a ``ValueError`` naming the codec;
# inputs the packed layout cannot carry (ragged or zero-length digests, a
# payload of 4 GiB or more) are rejected when encoding.

_RQ_HEADER = struct.Struct("<4sBBHI")  # magic, digest, flags, reserved, count
_RQ_MAGIC = b"RRQ1"

_RP_HEADER = struct.Struct("<4sI")  # magic, count
_RP_MAGIC = b"RRP1"


def encode_restore_request(fps: Iterable[Fingerprint]) -> bytes:
    """Pack a restore request list: header + concatenated fingerprints."""
    fps = fps if isinstance(fps, (list, tuple)) else list(fps)
    n = len(fps)
    digest = len(fps[0]) if n else 0
    if n and (not 0 < digest < 256 or any(len(fp) != digest for fp in fps)):
        raise ValueError(
            "RRQ1: fingerprints must share one width of 1..255 bytes, got "
            f"{sorted({len(fp) for fp in fps})}"
        )
    return _RQ_HEADER.pack(_RQ_MAGIC, digest, 0, 0, n) + b"".join(fps)


def decode_restore_request(blob: bytes) -> List[Fingerprint]:
    """Rebuild the fingerprint list of :func:`encode_restore_request`."""
    if len(blob) < _RQ_HEADER.size:
        raise ValueError(f"RRQ1: blob of {len(blob)}B is shorter than its header")
    magic, digest, _flags, _reserved, n = _RQ_HEADER.unpack_from(blob, 0)
    if magic != _RQ_MAGIC:
        raise ValueError(f"RRQ1: bad restore-request blob magic {bytes(magic)!r}")
    if len(blob) != _RQ_HEADER.size + n * digest or (n and not digest):
        raise ValueError(
            f"RRQ1: {n} digests of {digest}B need "
            f"{_RQ_HEADER.size + n * digest}B, blob has {len(blob)}B"
        )
    if not n:
        return []
    # Void dtype, not S: numpy's S strings are null-stripped, which would
    # truncate digests with trailing zero bytes (a ~n/256 event per request).
    return np.frombuffer(
        blob, dtype=np.dtype((np.void, digest)), count=n, offset=_RQ_HEADER.size
    ).tolist()


def encode_restore_reply(payloads: Iterable[bytes]) -> bytes:
    """Pack a restore reply: header + u32 length column + payload bytes."""
    payloads = (
        payloads if isinstance(payloads, (list, tuple)) else list(payloads)
    )
    n = len(payloads)
    lengths = np.fromiter(
        (len(p) for p in payloads), dtype=np.int64, count=n
    )
    if n and int(lengths.max()) >= 1 << 32:
        raise ValueError(
            f"RRP1: payload of {int(lengths.max())}B exceeds the u32 length field"
        )
    return b"".join(
        [
            _RP_HEADER.pack(_RP_MAGIC, n),
            lengths.astype("<u4").tobytes(),
            *payloads,
        ]
    )


def decode_restore_reply(blob: bytes) -> List[bytes]:
    """Rebuild the payload list of :func:`encode_restore_reply`.

    The length column is a zero-copy ``np.frombuffer`` view; payloads are
    cut from one memoryview of the blob (one copy per chunk, none of the
    whole stream).
    """
    if len(blob) < _RP_HEADER.size:
        raise ValueError(f"RRP1: blob of {len(blob)}B is shorter than its header")
    magic, n = _RP_HEADER.unpack_from(blob, 0)
    if magic != _RP_MAGIC:
        raise ValueError(f"RRP1: bad restore-reply blob magic {bytes(magic)!r}")
    pos = _RP_HEADER.size + 4 * n
    if pos > len(blob):
        raise ValueError(
            f"RRP1: length column of {n} payloads needs {pos}B, "
            f"blob has {len(blob)}B"
        )
    lengths = np.frombuffer(blob, dtype="<u4", count=n, offset=_RP_HEADER.size)
    expected = pos + int(lengths.sum(dtype=np.int64))
    if expected != len(blob):
        raise ValueError(
            f"RRP1: header and lengths describe {expected}B, "
            f"blob has {len(blob)}B"
        )
    view = memoryview(blob)
    payloads: List[bytes] = []
    for length in lengths.tolist():
        payloads.append(bytes(view[pos : pos + length]))
        pos += length
    return payloads
