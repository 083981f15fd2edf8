"""One columnar frame for every blob that crosses a rank or a disk.

Merge tables, manifests, restore requests and replies, the process
backend's merge-back delta and the persisted chain are each a
:class:`Schema` over this one byte layout (all little-endian; DESIGN.md
"One frame")::

    magic 4s | version u16 | n_scalars u8 | n_columns u8
    n_scalars x i64                        the scalar block, at fixed offset 8
    n_columns x (kind u32 | width u32 | count u64 | nbytes u64)
    the columns back to back, in table order:
      kind 0/1  signed/unsigned ints, width 1/2/4/8:  count x width bytes
      kind 2    digests, width = digest size:          count x width bytes
      kind 3    ragged bytes, width 0:  count x u64 end offsets, then the items

Three rules hold for every decode, whatever bytes arrive: digests are read
as **void** columns, never ``S`` (numpy strips trailing NULs from ``S``
strings, which shortens one digest in 256); the column table must account
for **every byte of the blob before anything is cut** from it; and **nothing
is allocated from a claimed count** — a count is only compared with the
bytes that are there.  Every failure is a :class:`FrameError` whose message
starts with the codec's magic.  The frame has no checksum: wire blobs do not
pay for one, and the blob that reaches a disk adds its own
(:meth:`repro.chain.manager.ChainManager.save`).
"""

from __future__ import annotations

import struct
from typing import Any, List, NamedTuple, Sequence, Tuple

import numpy as np

VERSION = 1
DIGEST = "digest"
RAGGED = "ragged"

_HEAD = struct.Struct("<4sHBB")  # magic, version, n_scalars, n_columns
_ENTRY = struct.Struct("<IIQQ")  # kind, width, count, nbytes
_ENDS = np.dtype("<u8")
#: schema kind -> (kind code, width or None for "any", dtype)
_KINDS = {
    f"{sign}{width}": (code, width, np.dtype(f"<{sign}{width}"))
    for code, sign in enumerate("iu")
    for width in (1, 2, 4, 8)
}
_KINDS.update({DIGEST: (2, None, None), RAGGED: (3, 0, _ENDS)})


class FrameError(ValueError):
    """A blob that is not a well-formed frame of the expected schema, or an
    object its schema cannot carry."""


class Schema(NamedTuple):
    """What one codec puts in a frame: the names of its integer scalars and
    ``(name, kind)`` per column, kind being ``"i1"``..``"i8"``,
    ``"u1"``..``"u8"``, :data:`DIGEST` or :data:`RAGGED`."""

    scalars: Tuple[str, ...]
    columns: Tuple[Tuple[str, str], ...]


def encode(
    magic: bytes, schema: Schema, scalars: Sequence[int], columns: Sequence[Any]
) -> bytes:
    """Pack ``scalars`` and ``columns`` (one per schema entry) into a frame.

    Int columns take anything ``np.asarray`` does and travel flattened in C
    order; a digest column is an iterable of equal-width ``bytes`` or a
    fixed-width numpy column; a ragged column is an iterable of bytes-likes.
    Digests of mixed or zero width, integers outside their column's range
    and items whose ``len()`` is not their byte size raise :class:`FrameError`.
    """
    name = magic.decode("ascii")
    if len(scalars) != len(schema.scalars) or len(columns) != len(schema.columns):
        raise FrameError(f"{name}: scalars or columns do not match the schema")
    try:
        parts: List[Any] = [
            _HEAD.pack(magic, VERSION, len(scalars), len(columns)),
            struct.pack(f"<{len(scalars)}q", *scalars),
        ]
    except struct.error as exc:
        raise FrameError(f"{name}: {exc}") from None
    body: List[Any] = []
    described = sum(map(len, parts)) + _ENTRY.size * len(columns)
    for (label, kind), column in zip(schema.columns, columns):
        code, width, dtype = _KINDS[kind]
        if not hasattr(column, "__len__"):
            column = list(column)
        count = len(column)
        if kind == RAGGED:
            ends = np.cumsum(np.fromiter(map(len, column), dtype=_ENDS, count=count))
            nbytes = 8 * count + (int(ends[-1]) if count else 0)
            body.append(ends)
            body.extend(column)
        elif kind == DIGEST and not isinstance(column, np.ndarray):
            widths = set(map(len, column))
            if len(widths) > 1 or 0 in widths:
                raise FrameError(
                    f"{name}: {label} has mixed or zero digest widths {sorted(widths)}"
                )
            width = widths.pop() if widths else 0
            nbytes = width * count
            body.extend(column)
        else:
            try:
                array = np.ascontiguousarray(column, dtype=dtype)
            except (OverflowError, TypeError, ValueError) as exc:
                raise FrameError(f"{name}: {label} is not {kind}: {exc}") from None
            if kind == DIGEST:
                width = array.dtype.itemsize if count else 0
            count, nbytes = array.size, array.nbytes
            body.append(array)
        parts.append(_ENTRY.pack(code, width, count, nbytes))
        described += nbytes
    blob = b"".join(parts + body)
    if len(blob) != described:
        raise FrameError(f"{name}: an item's len() is not its size in bytes")
    return blob


def _header(magic: bytes, view: memoryview, schema: Schema) -> Tuple[int, ...]:
    """Check length, magic, version and shape; return the scalar block."""
    name = magic.decode("ascii")
    shape = (len(schema.scalars), len(schema.columns))
    if view.nbytes < _HEAD.size + 8 * shape[0]:
        raise FrameError(f"{name}: blob of {view.nbytes}B is shorter than its header")
    got_magic, version, *got_shape = _HEAD.unpack_from(view, 0)
    if got_magic != magic:
        raise FrameError(f"{name}: bad magic {got_magic!r}")
    if version != VERSION:
        raise FrameError(f"{name}: unsupported frame version {version}")
    if tuple(got_shape) != shape:
        raise FrameError(
            f"{name}: frame has {got_shape[0]} scalars and {got_shape[1]} columns, "
            f"schema has {shape[0]} and {shape[1]}"
        )
    return struct.unpack_from(f"<{shape[0]}q", view, _HEAD.size)


def peek_scalars(magic: bytes, blob, schema: Schema) -> Tuple[int, ...]:
    """The scalar block of a frame, read from its header alone."""
    return _header(magic, memoryview(blob).cast("B"), schema)


def _ends_fit(view: memoryview, pos: int, count: int, data_nbytes: int) -> bool:
    """True when the ``count`` end offsets at ``pos`` rise to ``data_nbytes``."""
    if not count:
        return data_nbytes == 0
    ends = np.frombuffer(view, dtype=_ENDS, count=count, offset=pos)
    return int(ends[-1]) == data_nbytes and bool((ends[1:] >= ends[:-1]).all())


def decode(magic: bytes, blob, schema: Schema) -> Tuple[Tuple[int, ...], List[Any]]:
    """Check ``blob`` against ``schema`` and cut it into ``(scalars, columns)``.

    Int columns are read-only zero-copy views of ``blob``, digest columns
    read-only void-dtype views (``.tolist()`` gives full-width ``bytes``),
    ragged columns a list with one ``bytes`` per item.  Anything else about
    the blob raises :class:`FrameError` before the first cut.
    """
    name = magic.decode("ascii")
    view = memoryview(blob).toreadonly().cast("B")
    scalars = _header(magic, view, schema)
    total = view.nbytes
    table_at = _HEAD.size + 8 * len(scalars)
    pos = data_at = table_at + _ENTRY.size * len(schema.columns)
    if total < data_at:
        raise FrameError(f"{name}: blob of {total}B is shorter than its column table")
    table = list(_ENTRY.iter_unpack(view[table_at:data_at]))
    for (label, kind), (code, width, count, nbytes) in zip(schema.columns, table):
        want_code, want_width, _dtype = _KINDS[kind]
        fits = code == want_code and want_width in (None, width)
        if kind == RAGGED:
            fits = fits and nbytes >= 8 * count
        elif count:  # numpy item sizes are C ints
            fits = fits and nbytes == width * count and 0 < width < 1 << 31
        else:  # an empty column may claim any width
            fits = fits and nbytes == 0
        if not fits:
            raise FrameError(
                f"{name}: column {label} is not {kind}: kind {code}, width {width}, "
                f"count {count}, {nbytes}B"
            )
        if pos + nbytes > total:
            raise FrameError(f"{name}: truncated: blob of {total}B ends inside {label}")
        if kind == RAGGED and not _ends_fit(view, pos, count, nbytes - 8 * count):
            raise FrameError(f"{name}: offsets of {label} do not match its {nbytes}B")
        pos += nbytes
    if pos != total:
        raise FrameError(f"{name}: {total - pos} trailing bytes after a {pos}B frame")
    # A bytes blob slices straight to bytes; a mapped one goes through the view.
    source = blob if isinstance(blob, bytes) else view
    columns: List[Any] = []
    pos = data_at
    for (_label, kind), (_code, width, count, nbytes) in zip(schema.columns, table):
        dtype = _KINDS[kind][2] or np.dtype((np.void, width if count else 1))
        column = np.frombuffer(view, dtype=dtype, count=count, offset=pos)
        if kind == RAGGED:
            ends = (column + np.uint64(pos + 8 * count)).tolist()
            starts = [pos + 8 * count] + ends[:-1]
            column = [bytes(source[lo:hi]) for lo, hi in zip(starts, ends)]
        columns.append(column)
        pos += nbytes
    return scalars, columns
