"""Measurement plumbing shared by every workload.

* :class:`Spans` — in-memory span recorder for the layer walk (name, start,
  end, parent, rep id); self time = span minus the part its children cover.
* :class:`Run` — one benchmark run: timed samples per operation, the
  correctness-check counter behind ``attempted``/``failed``, time-boxed rep
  loops, the phase marks of traced dumps and the host's slowdown over the run.
* statistics: medians, rates and the tail percentile rule.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: dump phases the program announces through ``phase_hook``, in order
PHASES = ("hash", "reduction", "allgather", "exchange", "write")

#: candidate tail percentiles, highest first
_TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: reps start from whatever the allocator kept
    _malloc_trim = None


def start_cold() -> None:
    """Called off the clock before a timed rep: collect garbage and hand
    freed memory back to the OS, so that every rep faults its pages in
    afresh.  Allocator settings stay the defaults; without this a rep is
    fast or slow by whether glibc happened to keep the previous rep's
    buffers (README, "Steadiness")."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def host_kernel() -> None:
    """About 1 ms of interpreter-bound work (small hashes, buffer growth,
    dict inserts): what the host's slow state slows most."""
    out = bytearray()
    seen = {}
    for i in range(1500):
        digest = hashlib.blake2b(b"cal" + i.to_bytes(8, "little")).digest()
        out.extend(digest)
        seen[digest[:8]] = i


class Spans:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        #: rows of [name, start, end, parent index or -1, rep id]
        self.rows: List[list] = []
        self._stack: List[int] = []
        #: identifier shared by every span of the rep being walked
        self.rep = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), None, parent, self.rep]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Summed self seconds per span name."""
        covered = [0.0] * len(self.rows)
        for _name, start, end, parent, _rep in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _rep), inner in zip(self.rows, covered):
            out[name] += (end - start) - inner
        return dict(out)

    def total(self, name: str) -> float:
        """Summed wall seconds of every span called ``name``."""
        return sum(r[2] - r[1] for r in self.rows if r[0] == name)

    def as_doc(self) -> List[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "rep": rep}
            for i, (n, s, e, p, rep) in enumerate(self.rows)
        ]


def phase_seconds(
    marks: Dict[int, List[Tuple[str, float]]], start: float, end: float
) -> Dict[str, float]:
    """Per-phase seconds of one traced dump call, seen from outside.

    ``marks[rank]`` holds ``(phase, time)`` for each phase the rank entered.
    A phase lasts until the rank enters the next one (the last until the
    call returns); the figure is the maximum over ranks.  ``pre`` is the
    time from the call until the first rank starts hashing.
    """
    out = dict.fromkeys(("pre",) + PHASES, 0.0)
    entered = [m[0][1] for m in marks.values() if m]
    if entered:
        out["pre"] = min(entered) - start
    for rank_marks in marks.values():
        bounds = [t for _phase, t in rank_marks[1:]] + [end]
        for (phase, t), nxt in zip(rank_marks, bounds):
            out[phase] = max(out[phase], nxt - t)
    return out


def tail(seconds: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` at the highest percentile that still has at
    least ten samples beyond it; the median when no percentile does."""
    n = len(seconds)
    for pct in _TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            ordered = sorted(seconds)
            return ordered[min(n - 1, int(n * pct / 100.0))], pct
    return statistics.median(seconds), 50.0


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        #: op -> [(bytes, seconds)]
        self.samples: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        #: phase seconds of every traced dump
        self.phase_samples: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        #: when the timed sections began
        self.began = 0.0
        self.spans = Spans()
        #: (start, end) of the last clocked call
        self.last = (0.0, 0.0)
        #: seconds of every :func:`host_kernel` call, spread over the run
        self.host_seconds: List[float] = []

    # -- host ---------------------------------------------------------------------
    def sample_host(self) -> None:
        """Time the host kernel three times, off the clock."""
        for _ in range(3):
            start = time.perf_counter()
            host_kernel()
            self.host_seconds.append(time.perf_counter() - start)

    def rep_start(self) -> None:
        """Off the clock, before a timed rep."""
        start_cold()
        self.sample_host()

    def host_slowdown(self) -> float:
        """How much slower than its own best the host ran over this run:
        mean seconds of the host kernel ÷ their first decile.  The host
        flips between a fast and a slow state; the first decile is the fast
        state's speed and the mean follows the share of time spent in the
        slow one, as the workload's wall does (README, "Steadiness")."""
        fast = statistics.quantiles(self.host_seconds, n=10)[0]
        return statistics.mean(self.host_seconds) / fast

    # -- correctness ------------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        """Count one correctness gate; a failure is reported, not raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    @contextmanager
    def guard(self, what: str) -> Iterator[None]:
        """Count an operation that raises as failed and carry on."""
        try:
            yield
        except Exception:  # the harness must survive to report the failure
            traceback.print_exc()
            self.check(False, f"{what} raised")

    # -- timing -----------------------------------------------------------------
    def reps(
        self, until: float, min_reps: int, fixed: Optional[int] = None
    ) -> Iterator[int]:
        """Rep indices: exactly ``fixed`` of them, or as many as fit before
        the share ``until`` of the run's seconds has passed since the first
        section began (at least ``min_reps``).  Deadlines are cumulative, so
        a section that ends early leaves its time to the next."""
        if fixed is not None:
            yield from range(fixed)
            return
        deadline = self.began + until * self.seconds
        i = 0
        while i < min_reps or time.perf_counter() < deadline:
            yield i
            i += 1

    def clock(self, op: str, nbytes, fn: Callable, *args):
        """Time ``fn(*args)`` as one sample of ``op``.  ``nbytes`` is the
        bytes the call moves, or a function of its result."""
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.last = (start, end)
        moved = nbytes(out) if callable(nbytes) else nbytes
        self.samples[op].append((moved, end - start))
        return out

    def dump_rep(self, i: int, nbytes: int, dump: Callable):
        """One timed dump.  ``dump(marks)`` runs it untraced when ``marks``
        is None and traced into ``marks`` otherwise; a traced run of the
        benchmark alternates the two so their gap is the tracing overhead."""
        self.rep_start()
        if not (self.trace and i % 2):
            return self.clock("dump", nbytes, dump, None)
        marks: Dict[int, List[Tuple[str, float]]] = {}
        out = self.clock("dump.traced", nbytes, dump, marks)
        self.phase_samples.append(phase_seconds(marks, *self.last))
        return out

    # -- statistics -------------------------------------------------------------
    def seconds_of(self, op: str) -> List[float]:
        return [s for _b, s in self.samples.get(op, ())]

    def median_s(self, op: str) -> float:
        values = self.seconds_of(op)
        return statistics.median(values) if values else 0.0

    def rate_MBps(self, op: str) -> float:
        """Median over samples of bytes ÷ seconds, in 1e6 B/s."""
        rates = [b / s / 1e6 for b, s in self.samples.get(op, ()) if s > 0]
        return statistics.median(rates) if rates else 0.0

    def phase_median(self, phase: str) -> float:
        values = [p[phase] for p in self.phase_samples]
        return statistics.median(values) if values else 0.0


@contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic collector out of the timed sections; the loops
    collect explicitly between reps instead."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
