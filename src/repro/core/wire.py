"""Wire format of chunk records inside one-sided windows.

Each window slot has a fixed size (digest + u32 payload length + payload
padded to the chunk size), so that slot offsets computed by Algorithm 3 map
linearly to byte offsets.  The fingerprint travels with the payload because
the receiver stores incoming chunks keyed by fingerprint — that is what
makes a received chunk a usable *replica* rather than anonymous bytes.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Iterable, List, Tuple

import numpy as np

from repro.core import frame
from repro.core.fingerprint import Fingerprint, first_occurrences
from repro.core.frame import DIGEST, RAGGED, FrameError, Schema

_LEN = struct.Struct("<I")


def slot_nbytes(digest_size: int, chunk_size: int) -> int:
    """Fixed byte size of one window slot."""
    return digest_size + _LEN.size + chunk_size


#: Slots per block of the codec's temporaries (the joined fingerprint and
#: payload columns, the gathered payloads): about 1 MiB whatever the region.
_BLOCK_BYTES = 1 << 20


@lru_cache(maxsize=64)
def _slot_dtype(digest_size: int, chunk_size: int) -> np.dtype:
    """One window slot as a numpy record: ``fp | length | payload``."""
    return np.dtype(
        {
            "names": ["fp", "length", "payload"],
            "formats": [
                np.dtype((np.void, digest_size)),
                "<u4",
                np.dtype((np.void, chunk_size)),
            ],
            "offsets": [0, digest_size, digest_size + _LEN.size],
            "itemsize": slot_nbytes(digest_size, chunk_size),
        }
    )


def _block(digest_size: int, chunk_size: int) -> int:
    return max(1, _BLOCK_BYTES // slot_nbytes(digest_size, chunk_size))


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
    padding``.  The records are split into a fingerprint and a payload
    column, and each ~1 MiB block of slots is written as three column
    assignments over a record view of ``out``; a short payload is joined
    with its zero padding first, so stale bytes of a reused buffer cannot
    leak into a slot.  Payloads may be any bytes-like (a store also hands
    out views of a mapping it adopted).  Returns the number of records
    packed.

    A fingerprint that is not ``digest_size`` wide, a payload longer than
    ``chunk_size`` or a record past the end of ``out`` raises ``ValueError``
    before anything is written.
    """
    slot = slot_nbytes(digest_size, chunk_size)
    pos = start_slot * slot
    flat = list(chain.from_iterable(records))  # fp, payload, fp, payload, ...
    fps, chunks = flat[0::2], flat[1::2]
    count = len(fps)
    lengths = np.fromiter(map(len, chunks), dtype=np.int64, count=count)
    bad_fp = bad_chunk = count
    if count and set(map(len, fps)) != {digest_size}:
        bad_fp = next(i for i, fp in enumerate(fps) if len(fp) != digest_size)
    if count and lengths.max() > chunk_size:
        bad_chunk = int(np.argmax(lengths > chunk_size))
    if bad_fp < count and bad_fp <= bad_chunk:
        raise ValueError(
            f"fingerprint of {len(fps[bad_fp])}B in a {digest_size}B-digest slot"
        )
    if bad_chunk < count:
        raise ValueError(
            f"chunk of {lengths[bad_chunk]}B exceeds the slot payload size "
            f"{chunk_size}B"
        )
    room = memoryview(out).nbytes
    if pos + count * slot > room:
        raise ValueError(
            f"record {max(0, room - pos) // slot} overflows the {room}B buffer"
        )
    if not count:
        return 0
    slots = np.frombuffer(
        out, dtype=_slot_dtype(digest_size, chunk_size), count=count, offset=pos
    )
    pads = None
    if lengths.min() < chunk_size:
        padding = memoryview(bytes(chunk_size))
        widths = (chunk_size - lengths).tolist()
        pads = list(map(padding.__getitem__, map(slice, widths)))
    step = _block(digest_size, chunk_size)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        block = slots[lo:hi]
        block["fp"] = np.frombuffer(b"".join(fps[lo:hi]), dtype=block.dtype["fp"])
        block["length"] = lengths[lo:hi]
        payloads = chunks[lo:hi]
        if pads is not None:
            payloads = chain.from_iterable(zip(payloads, pads[lo:hi]))
        block["payload"] = np.frombuffer(
            b"".join(payloads), dtype=block.dtype["payload"]
        )
    return count


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
    the store keeps.  The region is a record array: one sort of its
    fingerprint column collapses the repeats
    (:func:`~repro.core.fingerprint.first_occurrences`), and the first
    occurrences' payloads come out through one gather and ``tolist()`` per
    ~1 MiB block when all fill their slots, one slice each otherwise.  Slot
    headers are validated in one sweep over the region: a region reaching
    past the buffer, a length field above ``chunk_size``, or a slot whose
    length differs from its fingerprint's first slot (content addressing
    gives one fingerprint one payload) raises ``ValueError`` naming the
    slot.  No array over ``buffer`` outlives the call.
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
        view, dtype=_slot_dtype(digest_size, chunk_size), count=slot_count,
        offset=base,
    )
    lengths = records["length"]
    bad = np.flatnonzero(lengths > chunk_size)
    if bad.size:
        raise ValueError(
            f"corrupt record in slot {start_slot + int(bad[0])}: "
            f"length {int(lengths[bad[0]])}"
        )
    first, counts, inverse = first_occurrences(records["fp"])
    first_lengths = lengths[first]
    clash = np.flatnonzero(lengths != first_lengths[inverse])
    if clash.size:
        at = int(clash[0])
        head = int(first[inverse[at]])
        raise ValueError(
            f"corrupt record in slot {start_slot + at}: length "
            f"{int(lengths[at])}, but slot {start_slot + head} carries its "
            f"fingerprint with length {int(lengths[head])}"
        )
    payloads: List[bytes] = []
    if first_lengths.min() == chunk_size:
        step = _block(digest_size, chunk_size)
        for lo in range(0, len(first), step):
            payloads.extend(records["payload"][first[lo : lo + step]].tolist())
    else:  # short payloads (a tail, a compressed frame): a slice each
        starts = base + first * slot + digest_size + _LEN.size
        slices = map(slice, starts.tolist(), (starts + first_lengths).tolist())
        payloads.extend(map(bytes, map(view.__getitem__, slices)))
    return (
        list(zip(records["fp"][first].tolist(), payloads)),
        counts.tolist(),
        int(lengths.sum(dtype=np.int64)),
    )


# -- framed blobs: merge tables and the restore request/reply rounds -----------
#
# Each is a schema over :mod:`repro.core.frame`, which owns the byte layout
# and every length check; what is left here is the object mapping.

_MT_MAGIC = b"RMT1"
_MT_SCHEMA = Schema(
    scalars=("k", "f"),
    columns=(
        ("fps", DIGEST),
        ("freq", "i8"),
        ("ranks", "i4"),  # k per fingerprint, PAD-filled
        ("load_arr", "i8"),
    ),
)

_RQ_MAGIC = b"RRQ1"
_RQ_SCHEMA = Schema(scalars=(), columns=(("fps", DIGEST),))

_RP_MAGIC = b"RRP1"
_RP_SCHEMA = Schema(scalars=(), columns=(("payloads", RAGGED),))


def encode_merge_table(table) -> bytes:
    """Flatten a :class:`repro.core.hmerge.MergeTable` to one RMT1 frame.

    ``MergeTable.__reduce__`` routes all pickling through this, so a table
    crosses a reduction round as one contiguous blob of raw columns."""
    return frame.encode(
        _MT_MAGIC,
        _MT_SCHEMA,
        (table.k, table.f),
        (table.fps, table.freq, table.ranks, table.load_arr),
    )


def decode_merge_table(blob):
    """Rebuild a :class:`MergeTable` from :func:`encode_merge_table` output.

    Columns are zero-copy read-only views into ``blob``; safe because
    :func:`repro.core.hmerge.hmerge` never mutates its inputs.
    """
    from repro.core.hmerge import MergeTable

    (k, f), (fps, freq, ranks, load_arr) = frame.decode(_MT_MAGIC, blob, _MT_SCHEMA)
    n = len(fps)
    if len(freq) != n or len(ranks) != n * k:
        raise FrameError(
            f"RMT1: {n} fingerprints with {len(freq)} frequencies and "
            f"{len(ranks)} ranks at k={k}"
        )
    try:
        table = MergeTable(k, f)
    except ValueError as exc:
        raise FrameError(f"RMT1: {exc}") from None
    # hmerge sorts and searches the column as S; only reading single elements
    # back strips NULs, and nothing does (see ``MergeTable.entries``).
    table.fps = fps.view(f"S{fps.dtype.itemsize}")
    table.freq, table.ranks, table.load_arr = freq, ranks.reshape(n, k), load_arr
    return table


def global_view_wire_nbytes(n: int, digest_size: int, designated: int) -> int:
    """The modelled wire size of a global view: digest + u32 frequency per
    entry plus u32 per designated rank."""
    return n * (digest_size + 4) + 4 * designated


def encode_restore_request(fps: Iterable[Fingerprint]) -> bytes:
    """Pack a restore request: the fingerprint column as one RRQ1 frame."""
    return frame.encode(_RQ_MAGIC, _RQ_SCHEMA, (), (fps,))


def decode_restore_request(blob) -> List[Fingerprint]:
    """Rebuild the fingerprint list of :func:`encode_restore_request`."""
    return frame.decode(_RQ_MAGIC, blob, _RQ_SCHEMA)[1][0].tolist()


def encode_restore_reply(payloads: Iterable[bytes]) -> bytes:
    """Pack a restore reply: the chunk payloads as one RRP1 frame."""
    return frame.encode(_RP_MAGIC, _RP_SCHEMA, (), (payloads,))


def decode_restore_reply(blob) -> List[bytes]:
    """Rebuild the payload list of :func:`encode_restore_reply` (one copy
    per chunk, none of the whole stream)."""
    return frame.decode(_RP_MAGIC, blob, _RP_SCHEMA)[1][0]
