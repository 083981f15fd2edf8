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

A schema names a ragged column :data:`RAGGED` or :data:`RAGGED_VIEW`.  The
bytes are the same; the second is decoded as views of the blob instead of
one ``bytes`` per item, for payloads that are going to stay where they are
(DESIGN.md "Merge-back: one write, one mapping").

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
#: ragged on the wire; decoded as read-only views of the blob, not ``bytes``
RAGGED_VIEW = "ragged_view"

_HEAD = struct.Struct("<4sHBB")  # magic, version, n_scalars, n_columns
_ENTRY = struct.Struct("<IIQQ")  # kind, width, count, nbytes
_ENDS = np.dtype("<u8")
#: schema kind -> (kind code, width or None for "any", dtype)
_KINDS = {
    f"{sign}{width}": (code, width, np.dtype(f"<{sign}{width}"))
    for code, sign in enumerate("iu")
    for width in (1, 2, 4, 8)
}
_RAGGED_CODE = 3
_KINDS.update(
    {
        DIGEST: (2, None, None),
        RAGGED: (_RAGGED_CODE, 0, _ENDS),
        RAGGED_VIEW: (_RAGGED_CODE, 0, _ENDS),
    }
)


class FrameError(ValueError):
    """A blob that is not a well-formed frame of the expected schema, or an
    object its schema cannot carry."""


class Schema(NamedTuple):
    """What one codec puts in a frame: the names of its integer scalars and
    ``(name, kind)`` per column, kind being ``"i1"``..``"i8"``,
    ``"u1"``..``"u8"``, :data:`DIGEST`, :data:`RAGGED` or
    :data:`RAGGED_VIEW`."""

    scalars: Tuple[str, ...]
    columns: Tuple[Tuple[str, str], ...]


class Layout:
    """A validated frame before it is written: its total ``nbytes`` and the
    ordered pieces (header, column table, columns) that make it up.  One
    :func:`layout` feeds both sinks, so there is one set of column rules."""

    __slots__ = ("name", "nbytes", "pieces")

    def __init__(self, name: str, nbytes: int, pieces: List[Any]) -> None:
        self.name = name
        self.nbytes = nbytes
        self.pieces = pieces

    def to_bytes(self) -> bytes:
        """The frame as one fresh ``bytes``."""
        blob = b"".join(self.pieces)
        if len(blob) != self.nbytes:
            raise FrameError(f"{self.name}: an item's len() is not its size in bytes")
        return blob

    def write_into(self, buffer) -> None:
        """Copy the pieces back to back into ``buffer``, a writable
        bytes-like of exactly ``nbytes``: each byte of the frame is written
        once, where it is going to stay."""
        out = memoryview(buffer)
        if out.readonly or out.nbytes != self.nbytes:
            raise FrameError(
                f"{self.name}: a {self.nbytes}B frame needs a writable buffer of "
                f"its size, got {out.nbytes}B"
            )
        out = out.cast("B")
        pos = 0
        for piece in self.pieces:
            end = pos + len(piece)  # the lens add up to nbytes by construction
            try:
                out[pos:end] = piece
            except ValueError:  # not unsigned bytes: the same bytes, or not a fit
                piece = memoryview(piece)
                if piece.nbytes != end - pos:
                    raise FrameError(
                        f"{self.name}: an item's len() is not its size in bytes"
                    ) from None
                out[pos:end] = piece.cast("B")
            pos = end


def layout(
    magic: bytes, schema: Schema, scalars: Sequence[int], columns: Sequence[Any]
) -> Layout:
    """Validate ``scalars`` and ``columns`` (one per schema entry) and lay
    them out as a frame; nothing is copied until a sink is called.

    Int columns take anything ``np.asarray`` does and travel flattened in C
    order; a digest column is an iterable of equal-width ``bytes`` or a
    fixed-width numpy column; a ragged column is an iterable of bytes-likes.
    Digests of mixed or zero width, integers outside their column's range
    and items whose ``len()`` is not their byte size raise :class:`FrameError`
    (the last one from the sink).
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
        if code == _RAGGED_CODE:
            ends = np.cumsum(np.fromiter(map(len, column), dtype=_ENDS, count=count))
            nbytes = 8 * count + (int(ends[-1]) if count else 0)
            body.append(ends.view(np.uint8))
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
            body.append(array.reshape(-1).view(np.uint8))
        parts.append(_ENTRY.pack(code, width, count, nbytes))
        described += nbytes
    return Layout(name, described, parts + body)


def encode(
    magic: bytes, schema: Schema, scalars: Sequence[int], columns: Sequence[Any]
) -> bytes:
    """:func:`layout` written to one ``bytes``."""
    return layout(magic, schema, scalars, columns).to_bytes()


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


def _slices(ends: np.ndarray, base: int):
    """One ``slice`` of the blob per ragged item whose data starts at ``base``."""
    stops = (ends + np.uint64(base)).tolist()
    return map(slice, [base] + stops[:-1], stops)


def decode(magic: bytes, blob, schema: Schema) -> Tuple[Tuple[int, ...], List[Any]]:
    """Check ``blob`` against ``schema`` and cut it into ``(scalars, columns)``.

    Int columns are read-only zero-copy views of ``blob``, digest columns
    read-only void-dtype views (``.tolist()`` gives full-width ``bytes``),
    :data:`RAGGED` columns a list with one ``bytes`` per item and
    :data:`RAGGED_VIEW` columns a list with one read-only ``memoryview``
    slice of ``blob`` per item, which keeps ``blob`` alive as long as any of
    them is.  Anything else about the blob raises :class:`FrameError` before
    the first cut or view.
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
        ragged = want_code == _RAGGED_CODE
        fits = code == want_code and want_width in (None, width)
        if ragged:
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
        if ragged and not _ends_fit(view, pos, count, nbytes - 8 * count):
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
        if kind == RAGGED_VIEW:
            column = list(map(view.__getitem__, _slices(column, pos + 8 * count)))
        elif kind == RAGGED:
            column = [bytes(source[cut]) for cut in _slices(column, pos + 8 * count)]
        columns.append(column)
        pos += nbytes
    return scalars, columns
