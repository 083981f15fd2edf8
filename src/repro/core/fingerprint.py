"""Chunk fingerprints.

The paper uses SHA-1 ("a crypto-grade hash function specifically designed to
minimize the chance of collisions") but notes the library "fully supports
other hash functions if a better trade-off between performance and collision
chance is desired".  :class:`Fingerprinter` is that pluggable point; the
supported algorithms cover the spectrum from crypto-grade (sha1, sha256) to
fast (blake2b with a 16-byte digest, md5) to the vectorised non-crypto
``xx128`` (``DumpConfig(hash_name="xx128")``).

``xx128`` is a position-keyed 128-bit mix computed with numpy: a whole
segment's chunks are viewed as an ``(n_chunks, words)`` uint64 matrix and
digested in a handful of cache-blocked whole-matrix ufunc passes —
per-chunk Python/hashlib overhead disappears from the hash phase
(measured ~4x sha1 throughput at 1 KiB chunks).  It is deterministic,
platform-independent
(little-endian word packing) and identical between the scalar and batch
entry points, but it is *not* collision-resistant against adversarial
input; keep a cryptographic hash where verification matters.

Thread-safety contract: a :class:`Fingerprinter` belongs to one rank (one
thread/process).  The hashed-byte accounting is batch-accumulated — one
append per segment/batch plus a loose scalar for the chunk-at-a-time path —
and is **not** synchronised; concurrent use of one instance from multiple
threads is unsupported.  The pipelined dump respects this by reading
:attr:`hashed_bytes` once, after all batches have been hashed.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Fingerprint = bytes

# The constructors themselves, not wrappers: the batch kernel calls one per
# chunk, and a Python frame around it costs about a tenth of a 256 B sha1.
_ALGORITHMS: Dict[str, Tuple[Callable[[bytes], "hashlib._Hash"], int]] = {
    "sha1": (hashlib.sha1, 20),
    "sha256": (hashlib.sha256, 32),
    "md5": (hashlib.md5, 16),
    "blake2b": (partial(hashlib.blake2b, digest_size=16), 16),
}

#: The vectorised non-crypto algorithm (``--integrity fast`` on the CLI).
FAST_HASH_NAME = "xx128"
_FAST_DIGEST_SIZE = 16

_MASK64 = (1 << 64) - 1
# xxh64's primes: empirically strong odd multipliers for 64-bit mixing.
_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x27D4EB2F165667C5
_P5 = 0x9E3779B97F4A7C15
#: Row-block size for the matrix kernel: keeps one block's uint64 working
#: set (~block * chunk_size bytes) inside L2 so the five in-place mixing
#: passes hit cache instead of DRAM — measured ~2.2x over whole-matrix ops.
_XX128_BLOCK = 256

# Per-word-count position keys, cached: ``ka`` keys each word column so
# permuting words changes the digest; ``kb`` (odd, hence bijective mod 2^64)
# weights the second reduction lane so the two 64-bit halves are
# independent linear combinations of the mixed words.
_XX128_KEYS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _xx128_keys(w: int) -> Tuple[np.ndarray, np.ndarray]:
    keys = _XX128_KEYS.get(w)
    if keys is None:
        idx = np.arange(1, w + 1, dtype=np.uint64)
        ka = (idx * np.uint64(_P1)) ^ np.uint64(_P5)
        kb = (idx * np.uint64(_P3)) | np.uint64(1)
        _XX128_KEYS[w] = keys = (ka, kb)
    return keys


def _avalanche(h: np.ndarray) -> np.ndarray:
    u64 = np.uint64
    h = h ^ (h >> u64(33))
    h = h * u64(_P2)
    h = h ^ (h >> u64(29))
    h = h * u64(_P3)
    h = h ^ (h >> u64(32))
    return h


def _xx128_rows(words: np.ndarray, nbytes: int) -> np.ndarray:
    """128-bit digests for ``n`` equal-length byte rows.

    ``words`` is an ``(n, w)`` uint64 matrix — each row the little-endian
    word packing of one chunk, zero-padded to the word boundary — and
    ``nbytes`` the true byte length shared by every row (folded into the
    finalisation so a chunk and its zero-padded sibling differ).  Returns
    an ``(n, 16)`` uint8 matrix of digests.

    Each word is xor-keyed by its position, avalanche-mixed, and the two
    digest halves are two independently weighted sums of the mixed words —
    every step a whole-matrix C-level ufunc, so per-chunk Python/hashlib
    overhead never appears.  Position keys make the digest order-sensitive;
    the multiply–xorshift mixing disperses single-bit differences across
    the word before the sums.  Non-crypto: additive combining is not
    collision-resistant against adversarial input.
    """
    n, w = words.shape
    u64 = np.uint64
    ka, kb = _xx128_keys(w)
    p1, p2 = u64(_P1), u64(_P2)
    r29, r32 = u64(29), u64(32)
    lo = np.empty(n, dtype=np.uint64)
    hi = np.empty(n, dtype=np.uint64)
    scratch = np.empty((min(_XX128_BLOCK, n), w), dtype=np.uint64)
    for s in range(0, n, _XX128_BLOCK):
        e = min(s + _XX128_BLOCK, n)
        y = scratch[: e - s]
        np.bitwise_xor(words[s:e], ka[None, :], out=y)
        y *= p2
        y ^= y >> r32
        y *= p1
        y ^= y >> r29
        y.sum(axis=1, dtype=np.uint64, out=lo[s:e])
        y *= kb[None, :]
        y.sum(axis=1, dtype=np.uint64, out=hi[s:e])
    lo = _avalanche(lo + u64((nbytes * _P4) & _MASK64))
    hi = _avalanche(hi ^ (lo * u64(_P5)) ^ u64(nbytes & _MASK64))
    out = np.empty((n, 2), dtype="<u8")
    out[:, 0] = lo
    out[:, 1] = hi
    return out.view(np.uint8).reshape(n, 16)


def _xx128_matrix(mat: np.ndarray, nbytes: int) -> List[Fingerprint]:
    """Digest every row of an ``(n, nbytes)`` uint8 matrix."""
    n, row = mat.shape
    pad = (-row) % 8
    if pad:
        padded = np.zeros((n, row + pad), dtype=np.uint8)
        padded[:, :row] = mat
        mat = padded
    elif not mat.flags.c_contiguous:
        mat = np.ascontiguousarray(mat)
    words = mat.view("<u8")
    raw = _xx128_rows(words, nbytes).tobytes()
    return [raw[i : i + 16] for i in range(0, 16 * n, 16)]


def _xx128_single(data) -> Fingerprint:
    view = memoryview(data).cast("B") if not isinstance(data, bytes) else data
    nbytes = len(view)
    pad = (-nbytes) % 8
    buf = bytes(view) + b"\x00" * pad if pad else bytes(view)
    words = np.frombuffer(buf, dtype="<u8").reshape(1, -1)
    return _xx128_rows(words, nbytes).tobytes()


class Fingerprinter:
    """Computes fixed-size fingerprints of chunks and accounts hashed bytes.

    The byte counter feeds the cost model's hash phase; reset it per dump
    with :meth:`reset_counter`.  Accounting is batch-accumulated: the batch
    entry points (:meth:`fingerprint_segment`, :meth:`fingerprint_views`)
    append one per-batch total instead of mutating a counter per chunk, and
    :attr:`hashed_bytes` sums them on read.  One instance per rank; not
    thread-safe (see the module docstring for the full contract).
    """

    def __init__(self, hash_name: str = "sha1") -> None:
        if hash_name == FAST_HASH_NAME:
            self._factory = None
            self._digest_size = _FAST_DIGEST_SIZE
        else:
            try:
                self._factory, self._digest_size = _ALGORITHMS[hash_name]
            except KeyError:
                raise ValueError(
                    f"unknown hash {hash_name!r}; supported: {supported_hashes()}"
                ) from None
        self.hash_name = hash_name
        self._hashed_inline = 0
        self._hashed_batches: List[int] = []

    @property
    def digest_size(self) -> int:
        """Fingerprint length in bytes."""
        return self._digest_size

    @property
    def hashed_bytes(self) -> int:
        """Total bytes hashed: loose per-chunk count + per-batch totals."""
        return self._hashed_inline + sum(self._hashed_batches)

    @property
    def vectorised(self) -> bool:
        """True when the batch kernel is numpy-vectorised (``xx128``)."""
        return self._factory is None

    def __call__(self, chunk: bytes) -> Fingerprint:
        self._hashed_inline += len(chunk)
        if self._factory is None:
            return _xx128_single(chunk)
        return self._factory(chunk).digest()

    def fingerprint_all(self, chunks: Iterable[bytes]) -> List[Fingerprint]:
        """Fingerprints for a chunk sequence, in order."""
        return [self(chunk) for chunk in chunks]

    def iter_fingerprints(
        self, chunks: Iterable[bytes]
    ) -> Iterator[Tuple[Fingerprint, bytes]]:
        """Yield ``(fingerprint, chunk)`` pairs streaming."""
        for chunk in chunks:
            yield self(chunk), chunk

    # -- batch (zero-copy) kernel -------------------------------------------
    def fingerprint_segment(
        self, buffer, chunk_size: int
    ) -> List[Fingerprint]:
        """Fingerprints of every fixed-size chunk of one segment.

        The hot-path variant of chunk-at-a-time hashing.  For hashlib
        algorithms the segment is walked as ``memoryview`` slices (see
        :func:`repro.core.chunking.iter_chunk_views`), so no per-chunk
        ``bytes`` object is ever materialised.  For ``xx128`` the whole
        segment is digested as one ``(n_chunks, chunk_size)`` matrix in a
        single vectorised pass (plus a scalar call for a short tail chunk).
        Chunk boundaries are identical to
        :meth:`repro.core.chunking.Dataset.chunks`.
        """
        from repro.core.chunking import as_bytes_view, iter_chunk_views

        view = as_bytes_view(buffer)
        total = len(view)
        if self._factory is None:
            out: List[Fingerprint] = []
            n_full = total // chunk_size
            if n_full:
                mat = np.frombuffer(
                    view[: n_full * chunk_size], dtype=np.uint8
                ).reshape(n_full, chunk_size)
                out.extend(_xx128_matrix(mat, chunk_size))
            tail = total - n_full * chunk_size
            if tail:
                out.append(_xx128_single(view[total - tail :]))
            self._hashed_batches.append(total)
            return out
        factory = self._factory
        out = [factory(v).digest() for v in iter_chunk_views(view, chunk_size)]
        self._hashed_batches.append(total)
        return out

    def fingerprint_views(self, views: Sequence) -> List[Fingerprint]:
        """Batch-hash an explicit sequence of buffer views (zero-copy).

        For ``xx128`` the views are grouped by length and each group is
        digested as one matrix — the common all-equal-length case is a
        single vectorised pass.  Digests are identical to the scalar kernel
        either way.
        """
        if self._factory is None:
            total = 0
            out: List[Fingerprint] = [b""] * len(views)
            groups: Dict[int, List[int]] = {}
            for i, v in enumerate(views):
                groups.setdefault(len(v), []).append(i)
                total += len(v)
            for length, idxs in groups.items():
                if length == 0:
                    empty = _xx128_single(b"")
                    for i in idxs:
                        out[i] = empty
                    continue
                mat = np.empty((len(idxs), length), dtype=np.uint8)
                for j, i in enumerate(idxs):
                    mat[j] = np.frombuffer(views[i], dtype=np.uint8)
                for i, digest in zip(idxs, _xx128_matrix(mat, length)):
                    out[i] = digest
            self._hashed_batches.append(total)
            return out
        factory = self._factory
        out = []
        hashed = 0
        for v in views:
            hashed += len(v)
            out.append(factory(v).digest())
        self._hashed_batches.append(hashed)
        return out

    def reset_counter(self) -> None:
        self._hashed_inline = 0
        self._hashed_batches.clear()


def sorted_runs(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort a fixed-width digest column into runs of equal digests.

    ``column`` is a non-empty 1-D array of ``np.void`` digests (it may be a
    strided field of a record array).  Returns ``(order, starts)``: the row
    indices that put the column in ascending bytes order, and where in that
    order each run of equal digests begins.  Within a run the rows come in
    no particular order; ``np.minimum.reduceat(order, starts)`` is each
    run's first row.

    Digests are hash output, so their first eight bytes almost always tell
    two apart: the column is sorted on those, read as one big-endian
    ``uint64`` (a digest under eight bytes is zero-padded), and only if two
    different digests tie on that key is it sorted again on the whole
    digest as ``S``.  An ``S`` compare strips trailing NULs, which on one
    fixed width is still bytes order; never list an ``S`` view, whose
    ``.tolist()`` strips them from the values too.  Not ``np.unique``: that
    sorts voids through a generic compare, and on its first string call
    imports ``numpy.ma`` (15 ms in every forked rank).
    """
    n = len(column)
    rows = np.ascontiguousarray(column).view(np.uint8).reshape(n, -1)
    prefix = np.zeros((n, 8), dtype=np.uint8)
    prefix[:, : min(8, rows.shape[1])] = rows[:, :8]
    key = prefix.view(">u8").ravel().astype(np.uint64)
    order = np.argsort(key)
    ranked = key[order]
    same = ranked[1:] == ranked[:-1]
    tied = np.flatnonzero(same)
    if tied.size and (rows[order[tied]] != rows[order[tied + 1]]).any():
        keys = column.view(f"S{column.dtype.itemsize}")
        order = np.argsort(keys)
        ranked = keys[order]
        same = ranked[1:] == ranked[:-1]
    fresh = np.ones(n, dtype=bool)
    fresh[1:] = ~same
    return order, np.flatnonzero(fresh)


def first_occurrences(
    column: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a fixed-width digest column to its distinct values.

    ``column`` is a 1-D array of ``np.void`` digests (it may be a strided
    field of a record array).  Returns ``(first, counts, inverse)``: the row
    of each distinct digest's first occurrence, ascending; how many rows
    carry it; and, per row, the index into ``first`` of its digest.

    The runs come from :func:`sorted_runs`; a digest's first row is the
    least row index in its run, and the runs are put in first-occurrence
    order by a mask, not a second sort.
    """
    n = len(column)
    if not n:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty
    order, starts = sorted_runs(column)
    heads = np.minimum.reduceat(order, starts)  # each sorted run's first row
    is_first = np.zeros(n, dtype=bool)
    is_first[heads] = True
    first = np.flatnonzero(is_first)
    place = (np.cumsum(is_first) - 1)[heads]  # each run's index into ``first``
    lengths = np.diff(np.append(starts, n))
    counts = np.empty(len(heads), dtype=np.intp)
    counts[place] = lengths
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.repeat(place, lengths)
    return first, counts, inverse


def supported_hashes() -> List[str]:
    """Names accepted by :class:`Fingerprinter` and ``DumpConfig.hash_name``."""
    return sorted([*_ALGORITHMS, FAST_HASH_NAME])
