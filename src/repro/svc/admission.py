"""Admission queue: FIFO within a tenant, round-robin across tenants.

HPDedup's lesson applies at admission time: when concurrent writers
contend for dump bandwidth, unmanaged FIFO lets one chatty tenant starve
the rest.  The queue therefore keeps one FIFO per tenant and serves
tenants round-robin (resuming after the last-served tenant), which gives
per-tenant fairness without timestamps — admission order is a pure
function of the submit order, so fuzz replays are deterministic.

Depth is bounded: a push past ``max_depth`` raises
:class:`~repro.svc.errors.QueueFullError`, the service's backpressure
signal (surfaced as the ``svc_queue_depth`` gauge).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.svc.errors import QueueFullError


@dataclass
class DumpRequest:
    """One queued dump: who asked, what to dump, and when it was asked."""

    ticket: int
    tenant: str
    #: workload whose ``build_dataset(rank, n)`` yields each rank's dataset
    workload: object
    submitted_tick: int = 0
    #: optional per-phase hook threaded into ``dump_output`` (dst crashes)
    phase_hook: Optional[Callable] = None
    #: ``"full"``, or ``"delta"`` against the tenant's newest live dump
    kind: str = "full"


class AdmissionQueue:
    """Bounded multi-tenant queue with round-robin fairness."""

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._queues: Dict[str, Deque[DumpRequest]] = {}
        #: tenants in first-submit order — the round-robin ring
        self._ring: List[str] = []
        self._cursor = 0
        self.max_depth_seen = 0
        self.pushed = 0
        self.popped = 0

    @property
    def depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depth_of(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def push(self, request: DumpRequest) -> None:
        """Enqueue, or raise :class:`QueueFullError` at the depth bound."""
        if self.depth >= self.max_depth:
            raise QueueFullError(
                f"admission queue full ({self.max_depth} requests); "
                f"tenant {request.tenant!r} must back off"
            )
        queue = self._queues.get(request.tenant)
        if queue is None:
            queue = self._queues[request.tenant] = deque()
            self._ring.append(request.tenant)
        queue.append(request)
        self.pushed += 1
        self.max_depth_seen = max(self.max_depth_seen, self.depth)

    def pop(self) -> Optional[DumpRequest]:
        """Next request under round-robin fairness, or None when empty.

        Scans the tenant ring starting *after* the last-served tenant, so
        a tenant that just dumped goes to the back of the service order
        even if its FIFO is the deepest.
        """
        if not self._ring:
            return None
        for offset in range(len(self._ring)):
            idx = (self._cursor + offset) % len(self._ring)
            queue = self._queues[self._ring[idx]]
            if queue:
                self._cursor = (idx + 1) % len(self._ring)
                self.popped += 1
                return queue.popleft()
        return None
