"""Phase 2's merge operator: top-F frequency counting with designated ranks.

The collective deduplication runs ``ALLREDUCE(HMERGE, LHashes)``: given two
fingerprint tables (each mapping fingerprints to their frequency and a list
of at most K *designated ranks*), :func:`hmerge` outputs the F most frequent
fingerprints of the union.  Two properties from Section III-B are encoded
here:

* **Bounded complexity** — each merge keeps at most ``F`` fingerprints; the
  rest are "considered unique even if they are not" (a correctness-neutral
  relaxation).
* **Load balancing by uniform rank assignment** — when a merged rank list
  exceeds K it is truncated "in such way that the most loaded ranks are
  eliminated first", where a rank's load is the number of fingerprints it is
  currently designated for.

:func:`hmerge` is deterministic and symmetric (``hmerge(a, b)`` equals
``hmerge(b, a)``).  That matters: in a recursive-doubling allreduce the two
sides of every exchange apply the operator with swapped arguments, and
symmetry is exactly what guarantees every rank ends up with the identical
global view without a final broadcast.

Implementation note: this is the system's hot kernel (the paper implements
it in C++ over Boost containers).  Tables are stored as parallel numpy
arrays — fingerprints as fixed-width byte strings kept sorted, frequencies
as int64, designated ranks as a (n, K) int32 matrix padded with a sentinel —
so a merge is a handful of vectorised set operations instead of per-entry
dictionary work.  The per-round eviction of over-designated ranks processes
all overflowing entries simultaneously (one eviction per entry per round),
which keeps the operator symmetric and runs in O(K) vectorised rounds.
:class:`GlobalView` keeps the final table's columns (``S``, not void: ``S``
argsorts about 1.5x faster), read with one ``searchsorted`` per rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint

#: padding sentinel for unused designated-rank slots (sorts after any rank)
PAD = np.iinfo(np.int32).max


@dataclass(frozen=True)
class MergeEntry:
    """One fingerprint's global state during/after the reduction.

    ``ranks`` is kept sorted by rank id; the round-robin assignment of
    missing replicas indexes into this sorted tuple, so keeping a canonical
    order makes the assignment identical on every rank with no extra
    communication.
    """

    freq: int
    ranks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.freq < 1:
            raise ValueError(f"frequency must be >= 1, got {self.freq}")
        if tuple(sorted(self.ranks)) != self.ranks:
            object.__setattr__(self, "ranks", tuple(sorted(self.ranks)))

    @classmethod
    def _trusted(cls, freq: int, ranks: Tuple[int, ...]) -> "MergeEntry":
        """Construct without validation (table rows are pre-sorted arrays).

        ``entries`` dicts and ``GlobalView.get`` build entries from table
        rows, whose valid ranks are already sorted; no production path
        builds one at all.
        """
        entry = object.__new__(cls)
        object.__setattr__(entry, "freq", freq)
        object.__setattr__(entry, "ranks", ranks)
        return entry


def _column(fps: Sequence[Fingerprint]) -> np.ndarray:
    """Fingerprints as one ``S<digest>`` column over their joined bytes
    (no per-item conversion; trailing NULs stay part of the value)."""
    widths = set(map(len, fps))
    if len(widths) > 1 or 0 in widths:
        raise ValueError("fingerprints must have a uniform width, not 0")
    width = widths.pop() if widths else 1
    return np.frombuffer(b"".join(fps), dtype=f"S{width}")


class _Columns:
    """Reads shared by a merge table and the view: ``fps`` (sorted
    ``S<digest>``), ``freq`` (int64) and ``ranks`` ((n, K) int32, valid
    ranks sorted first, ``PAD`` after)."""

    __slots__ = ()

    @property
    def digest_size(self) -> int:
        """Fingerprint width in bytes (0 when empty)."""
        return self.fps.dtype.itemsize if len(self.fps) else 0

    def rows(self, fps: Sequence[Fingerprint]) -> np.ndarray:
        """Row of each of ``fps`` (int64, -1 where absent), by one
        ``searchsorted``.  Raises ``ValueError`` on mixed widths or a width
        other than the columns': ``S`` comparison would NUL-pad a shorter
        query into a match."""
        query = _column(fps)
        n = len(self.fps)
        if not n or not len(query):
            return np.full(len(query), -1, dtype=np.int64)
        if query.dtype != self.fps.dtype:
            raise ValueError(
                f"fingerprint widths differ: {self.fps.dtype} vs {query.dtype}"
            )
        pos = np.minimum(np.searchsorted(self.fps, query), n - 1)
        return np.where(self.fps[pos] == query, pos, -1).astype(np.int64, copy=False)

    def _row(self, fp: Fingerprint) -> int:
        # A fingerprint of another width is simply absent.
        return int(self.rows((fp,))[0]) if len(fp) == self.digest_size else -1

    def __contains__(self, fp: Fingerprint) -> bool:
        return self._row(fp) >= 0

    def __len__(self) -> int:
        return len(self.fps)

    @property
    def entries(self) -> Dict[Fingerprint, MergeEntry]:
        """The columns as a dict, built on demand (inspection and tests)."""
        n = len(self.fps)
        out: Dict[Fingerprint, MergeEntry] = {}
        if not n:
            return out
        # Bulk extraction instead of per-entry numpy indexing: tobytes()
        # yields the fixed-width concatenation (trailing NULs intact — the
        # S dtype only strips them on element readback), tolist() converts
        # whole columns to Python scalars at C speed, and PAD-last row
        # ordering means a row's first ``count`` values are exactly its
        # valid ranks, already sorted.
        width = self.fps.dtype.itemsize
        raw = self.fps.tobytes()
        freqs = self.freq.tolist()
        rows = self.ranks.tolist()
        counts = (self.ranks != PAD).sum(axis=1).tolist()
        for i in range(n):
            out[raw[i * width : (i + 1) * width]] = MergeEntry._trusted(
                freqs[i], tuple(rows[i][: counts[i]])
            )
        return out


class MergeTable(_Columns):
    """A bounded fingerprint-frequency table flowing through the reduction.

    Array storage (internal): the sorted columns of :class:`_Columns` plus
    ``load_arr`` (int64 per rank id).  The dictionary views ``entries`` /
    ``rank_load`` are materialised on demand for inspection and tests;
    algorithms use the arrays.
    """

    __slots__ = ("fps", "freq", "ranks", "load_arr", "k", "f")

    def __init__(self, k: int, f: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if f < 1:
            raise ValueError(f"f must be >= 1, got {f}")
        self.k = k
        self.f = f
        self.fps = np.empty(0, dtype="S1")
        self.freq = np.empty(0, dtype=np.int64)
        self.ranks = np.full((0, k), PAD, dtype=np.int32)
        self.load_arr = np.empty(0, dtype=np.int64)

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_local(
        cls,
        fingerprints: Iterable[Fingerprint],
        rank: int,
        k: int,
        f: int,
    ) -> "MergeTable":
        """Initial table of one rank: every locally unique fingerprint with
        frequency 1 and itself as the only designated rank.

        If a rank holds more than F locally unique fingerprints, a
        deterministic subset (smallest fingerprints) is selected — the same
        relaxation the merge applies, pushed to the leaves.
        """
        table = cls(k, f)
        # Sort and drop neighbours by hand: np.unique imports numpy.ma on its
        # first string call, about 15 ms in every forked rank.
        column = np.sort(_column(list(fingerprints)))
        fresh = np.ones(len(column), dtype=bool)
        fresh[1:] = column[1:] != column[:-1]
        unique = column[fresh][:f]
        n = len(unique)
        if n:
            table.fps = unique
            table.freq = np.ones(n, dtype=np.int64)
            table.ranks = np.full((n, k), PAD, dtype=np.int32)
            table.ranks[:, 0] = rank
            table.load_arr = np.zeros(rank + 1, dtype=np.int64)
            table.load_arr[rank] = n
        return table

    # -- dict views (inspection/tests; algorithms use the arrays) ---------------
    @property
    def rank_load(self) -> Dict[int, int]:
        nz = np.nonzero(self.load_arr)[0]
        return {int(r): int(self.load_arr[r]) for r in nz}

    # -- size accounting (feeds the network trace / cost model) ---------------
    def nbytes_estimate(self) -> int:
        """Approximate wire size: digest + u32 freq + u32 per designated rank,
        plus the per-rank load vector."""
        if not len(self.fps):
            return 0
        digest = self.fps.dtype.itemsize
        designated = int((self.ranks != PAD).sum())
        return len(self.fps) * (digest + 4) + 4 * designated + 8 * int(
            (self.load_arr > 0).sum()
        )

    def __reduce__(self):
        """Pickle as one RMT1 frame (:mod:`repro.core.wire`): reduction
        rounds ship tables between ranks, and the receiving side gets the
        columns back as zero-copy views instead of a per-attribute walk."""
        from repro.core.wire import decode_merge_table, encode_merge_table

        return (decode_merge_table, (encode_merge_table(self),))

    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping drifted (test hook)."""
        assert len(self.fps) <= self.f
        assert (np.sort(self.fps) == self.fps).all(), "fps not sorted"
        assert len(np.unique(self.fps)) == len(self.fps), "duplicate fps"
        recount: Dict[int, int] = {}
        for i in range(len(self.fps)):
            row = self.ranks[i]
            valid = row[row != PAD]
            assert 1 <= len(valid) <= self.k
            assert len(set(valid.tolist())) == len(valid)
            for r in valid.tolist():
                recount[r] = recount.get(r, 0) + 1
        assert recount == self.rank_load, (recount, self.rank_load)


def _merge_loads(a: MergeTable, b: MergeTable) -> np.ndarray:
    size = max(len(a.load_arr), len(b.load_arr))
    load = np.zeros(size, dtype=np.int64)
    load[: len(a.load_arr)] += a.load_arr
    load[: len(b.load_arr)] += b.load_arr
    return load


def _evict_overflow(
    ranks: np.ndarray,
    k: int,
    load: np.ndarray,
    node_of: Optional[Sequence[int]],
) -> np.ndarray:
    """Reduce every row of ``ranks`` to at most ``k`` valid entries.

    Each vectorised round evicts, from every still-overflowing row, the
    designated rank with the highest load — restricted, given a rank ->
    node map, to ranks on already-duplicated nodes when any exist.  Equal
    loads are tie-broken by a deterministic per-(entry, rank) hash: without
    it every row of a round would evict the *same* rank (rows see identical
    loads), which is exactly the herding the load balancing exists to avoid.
    Evictions of one round are applied to ``load`` simultaneously; rows are
    ordered by fingerprint (the caller passes them sorted), so the result
    is symmetric in the merge arguments.
    """
    if not len(ranks):
        return ranks
    node_map = None
    if node_of is not None:
        node_map = np.asarray(node_of, dtype=np.int64)
    counts = (ranks != PAD).sum(axis=1)
    int_min = np.iinfo(np.int64).min

    def evict_one(rows: np.ndarray) -> None:
        """Evict one rank from each of ``rows`` against the current loads."""
        sub = ranks[rows]  # (m, width), rows sorted ascending, PAD last
        valid = sub != PAD
        safe = np.where(valid, sub, 0)
        loads = np.where(valid, load[safe], int_min)
        if node_map is not None:
            nodes = np.where(valid, node_map[safe], -1)
            # Mark ranks whose node appears more than once in the row.
            dup = np.zeros_like(valid)
            for col in range(sub.shape[1]):
                same = (nodes == nodes[:, col : col + 1]) & valid
                dup[:, col] = valid[:, col] & (same.sum(axis=1) > 1)
            if_any = dup.any(axis=1)
            # Restrict the victim pool to duplicated-node ranks where any.
            loads = np.where(if_any[:, None] & ~dup & valid, int_min, loads)
        # Deterministic per-(row, rank) tie-break hash; row ids index the
        # fingerprint-sorted entry order, so the result is argument-order
        # independent.  Murmur-style mixing avalanches the row term —
        # otherwise every row of a batch would evict the same rank.
        h = (sub.astype(np.int64) + 1) * 2654435761 ^ (
            (rows[:, None].astype(np.int64) + 1) * 2246822519
        )
        h &= 0xFFFFFFFF
        h ^= h >> 16
        h = (h * 2246822519) & 0xFFFFFFFF
        h ^= h >> 13
        tie = np.where(loads != int_min, h & 0x7FFFFFFF, -1)
        max_load = loads.max(axis=1)
        cand = loads == max_load[:, None]
        tie_masked = np.where(cand, tie, -1)
        best_tie = tie_masked.max(axis=1)
        victim_mask = cand & (tie_masked == best_tie[:, None])
        victim = np.where(victim_mask, sub, -1).max(axis=1)
        cell = (sub == victim[:, None]).argmax(axis=1)
        ranks[rows, cell] = PAD
        np.subtract.at(load, victim, 1)
        resort = ranks[rows]
        resort.sort(axis=1)
        ranks[rows] = resort
        counts[rows] -= 1

    while True:
        over = np.nonzero(counts > k)[0]
        if not len(over):
            break
        # Batched eviction: loads refresh between batches, so victim choice
        # tracks the evolving balance closely (fully sequential for small
        # merges, 8 vectorised batches for large ones) — the stale-load
        # herding a single whole-round eviction would cause stays bounded.
        batch = max(1, len(over) // 8)
        for start in range(0, len(over), batch):
            evict_one(over[start : start + batch])
    return ranks


def hmerge(
    a: MergeTable, b: MergeTable, node_of: Optional[Sequence[int]] = None
) -> MergeTable:
    """Merge two tables: sum frequencies, bound rank lists to K dropping the
    most-loaded ranks first, keep the F most frequent fingerprints.

    ``node_of`` (rank -> node, the cluster's static map, identical on every
    rank) makes rank-list truncation evict ranks whose node is already
    represented first, so the surviving designated set spans as many
    distinct nodes as possible.  On one rank per node it changes nothing.

    Pure (inputs are not mutated) — required because the threads-based
    substrate passes objects by reference, so a mutating operator would
    corrupt sibling reduction lanes.  Deterministic and symmetric.
    """
    if a.k != b.k or a.f != b.f:
        raise ValueError(
            f"cannot merge tables with different bounds: "
            f"(k={a.k}, f={a.f}) vs (k={b.k}, f={b.f})"
        )
    k, f = a.k, a.f
    out = MergeTable(k, f)
    load = _merge_loads(a, b)

    if not len(a.fps) and not len(b.fps):
        out.load_arr = load
        return out
    if not len(a.fps) or not len(b.fps):
        src = a if len(a.fps) else b
        out.fps = src.fps.copy()
        out.freq = src.freq.copy()
        out.ranks = src.ranks.copy()
        out.load_arr = load
        return out

    # Align dtypes (digest widths must agree across ranks).
    if a.fps.dtype != b.fps.dtype:
        raise ValueError(
            f"fingerprint widths differ: {a.fps.dtype} vs {b.fps.dtype}"
        )

    common, ia, ib = np.intersect1d(
        a.fps, b.fps, assume_unique=True, return_indices=True
    )
    only_a = np.ones(len(a.fps), dtype=bool)
    only_a[ia] = False
    only_b = np.ones(len(b.fps), dtype=bool)
    only_b[ib] = False

    # Overlapping entries: sum frequencies, union + bound the rank lists.
    freq_c = a.freq[ia] + b.freq[ib]
    ranks_c = np.concatenate([a.ranks[ia], b.ranks[ib]], axis=1)
    ranks_c.sort(axis=1)
    if len(ranks_c):
        # De-duplicate ranks designated on both sides (impossible inside a
        # reduction — subtrees are rank-disjoint — but legal via the public
        # API); the duplicate slot is PADded and the double-counted load
        # released.
        dup = (ranks_c[:, 1:] == ranks_c[:, :-1]) & (ranks_c[:, 1:] != PAD)
        if dup.any():
            rows, cols = np.nonzero(dup)
            np.subtract.at(load, ranks_c[rows, cols + 1], 1)
            ranks_c[rows, cols + 1] = PAD
            ranks_c.sort(axis=1)
    ranks_c = _evict_overflow(ranks_c, k, load, node_of)

    fps_all = np.concatenate([a.fps[only_a], b.fps[only_b], common])
    freq_all = np.concatenate([a.freq[only_a], b.freq[only_b], freq_c])
    width = ranks_c.shape[1]

    def pad_to(mat: np.ndarray) -> np.ndarray:
        if mat.shape[1] == width:
            return mat
        extra = np.full((mat.shape[0], width - mat.shape[1]), PAD, dtype=np.int32)
        return np.concatenate([mat, extra], axis=1)

    ranks_all = np.concatenate(
        [pad_to(a.ranks[only_a]), pad_to(b.ranks[only_b]), ranks_c], axis=0
    )

    # Top-F selection: keep the F most frequent; ties broken by fingerprint
    # bytes (larger wins), matching a total (freq, fp) order.
    if len(fps_all) > f:
        order = np.lexsort((fps_all, freq_all))  # ascending (freq, fp)
        dropped = order[: len(fps_all) - f]
        dropped_ranks = ranks_all[dropped]
        np.subtract.at(load, dropped_ranks[dropped_ranks != PAD], 1)
        keep = order[len(fps_all) - f :]
        fps_all = fps_all[keep]
        freq_all = freq_all[keep]
        ranks_all = ranks_all[keep]

    final = np.argsort(fps_all)
    out.fps = fps_all[final]
    out.freq = freq_all[final]
    out.ranks = np.ascontiguousarray(ranks_all[final][:, :k])
    out.load_arr = load
    return out


@dataclass(eq=False)
class GlobalView(_Columns):
    """The broadcast result of the reduction: the global fingerprint view.

    Every rank consults this to decide, per chunk: discard (enough natural
    replicas exist elsewhere), store locally, and/or top up missing replicas.
    It is the final table's columns, unchanged.  Consumers ask :meth:`rows`
    once for a whole fingerprint column; the single-item accessors go
    through the same lookup.
    """

    fps: np.ndarray
    freq: np.ndarray
    ranks: np.ndarray
    k: int
    #: the modelled wire size of these columns, computed at construction
    wire_nbytes: int

    @classmethod
    def from_table(cls, table: MergeTable) -> "GlobalView":
        """The view of ``table``, sharing its columns; ``wire_nbytes`` is
        computed from *this* table on every call (never cached across
        tables) — see :func:`repro.core.wire.global_view_wire_nbytes`."""
        from repro.core.wire import global_view_wire_nbytes

        nbytes = global_view_wire_nbytes(
            len(table.fps), table.digest_size, int((table.ranks != PAD).sum())
        )
        return cls(table.fps, table.freq, table.ranks, table.k, nbytes)

    def get(self, fp: Fingerprint) -> Optional[MergeEntry]:
        row = self._row(fp)
        if row < 0:
            return None
        ranks = self.ranks[row]
        return MergeEntry._trusted(int(self.freq[row]), tuple(ranks[ranks != PAD].tolist()))

    def designated(self, fp: Fingerprint) -> Tuple[int, ...]:
        """Designated ranks of ``fp`` (empty tuple when not in the view)."""
        entry = self.get(fp)
        return entry.ranks if entry is not None else ()

    def nbytes_estimate(self) -> int:
        return self.wire_nbytes
