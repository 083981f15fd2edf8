"""SPMD execution: run one function on N ranks.

Usage::

    def program(comm, payload):
        ...
        return result

    results = run_spmd(4, program, payload)   # [r0, r1, r2, r3]

The world owns everything shared between ranks: the point-to-point
transport, the barrier and the one-sided window registry.  Exceptions
raised by any rank abort the run and are re-raised as a
:class:`~repro.simmpi.errors.WorldError` carrying every rank's failure, so
a mismatched collective surfaces as one readable error instead of a hang.

This module provides the default **thread** backend (:class:`World`: every
rank is a thread of the calling interpreter) plus the backend-dispatching
:func:`run_spmd`.  The **process** backend lives in
:mod:`repro.simmpi.procworld`; both implement the
:class:`~repro.simmpi.backend.BaseWorld` contract.
"""

from __future__ import annotations

import mmap
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.simmpi.backend import (
    BaseWorld,
    DEFAULT_TIMEOUT,
    create_world,
    releasing,
    resolve_timeout,
)
from repro.simmpi.comm import Communicator, _Mailbox
from repro.simmpi.errors import (
    DeadlockError,
    PeerFailedError,
    SimMPIError,
    WorldError,
)

__all__ = ["DEFAULT_TIMEOUT", "World", "run_spmd"]

#: How often a rank blocked in ``recv`` looks up to see whether the run was
#: aborted.  Coarse on purpose: an idle wait wakes twenty times a second,
#: and a dead peer is noticed within one slice instead of the world timeout.
_ABORT_POLL_S = 0.05


class _WindowSlot:
    """Thread backend's window slot: an anonymous private mapping.

    Implements the slot protocol the backend-neutral
    :class:`~repro.simmpi.window.Window` drives (see
    :class:`~repro.simmpi.backend.BaseWorld`).  The kernel zero-fills a
    mapped page when it is first touched, so a window page is touched once,
    by the sender that writes it (a ``bytearray`` is zeroed up front).
    Writers fill disjoint regions without a lock; the lock only guards the
    ``filled`` counter.
    """

    __slots__ = ("nbytes", "lock", "_mem", "_buf", "_views", "_filled")

    def __init__(self, nbytes: int) -> None:
        self.nbytes = int(nbytes)
        self.lock = threading.Lock()
        self._mem = mmap.mmap(
            -1, max(1, self.nbytes), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        )
        self._buf = memoryview(self._mem)
        self._views: List[memoryview] = []
        self._filled = 0

    @property
    def filled(self) -> int:
        with self.lock:
            return self._filled

    def view(self, offset: int, nbytes: int, readonly: bool = False) -> memoryview:
        """Zero-copy view of ``[offset, offset + nbytes)``, released by
        :meth:`close`."""
        view = self._buf[offset : offset + nbytes]
        if readonly:
            view = view.toreadonly()
        self._views.append(view)
        return view

    def account(self, nbytes: int, remote: bool) -> None:
        # Receives are charged inline by World.charge_put_received.
        with self.lock:
            self._filled += nbytes

    def write(self, staged, remote: bool) -> None:
        """Copy every ``(offset, payload)`` region in; one accounting update."""
        total = 0
        for offset, payload in staged:
            self._buf[offset : offset + len(payload)] = payload
            total += len(payload)
        self.account(total, remote)

    def read(self, offset: int, nbytes: int) -> bytes:
        return bytes(self._buf[offset : offset + nbytes])

    def take_received(self):
        return 0, 0

    def close(self) -> None:
        """Release every view handed out and unmap the region."""
        with releasing(self._views):
            self._buf.release()
            self._mem.close()


class World(BaseWorld):
    """Thread backend: shared state for one SPMD execution of ``size`` ranks."""

    backend_name = "thread"

    def __init__(self, size: int, timeout: Optional[float] = None) -> None:
        if size < 1:
            raise SimMPIError(f"world size must be >= 1, got {size}")
        self.size = int(size)
        self.timeout = resolve_timeout(timeout)
        self.barrier = threading.Barrier(self.size)
        self._mailboxes = [_Mailbox() for _ in range(self.size)]
        self._comms: List[Optional[Communicator]] = [None] * self.size
        self._windows: Dict[int, Dict[int, _WindowSlot]] = {}
        self._windows_lock = threading.Lock()

    # -- point-to-point transport ----------------------------------------------
    def post(self, dest: int, source: int, tag: int, obj: Any) -> None:
        self._mailboxes[dest].queue_for(source, tag).put(obj)

    def deliver(self, rank: int, source: int, tag: int, timeout: float) -> Any:
        # Raises queue.Empty on timeout; the communicator translates.  The
        # wait is sliced so that a receiver notices the abort ``run`` signals
        # through the barrier when a rank fails; a message that is already
        # queued still wins over the abort.
        inbox = self._mailboxes[rank].queue_for(source, tag)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                return inbox.get(timeout=max(0.0, min(remaining, _ABORT_POLL_S)))
            except queue.Empty:
                if self.barrier.broken:
                    raise PeerFailedError(
                        f"rank {rank}: recv(source={source}, tag={tag}) "
                        "aborted because a peer rank failed first (its "
                        "failure is the root cause)"
                    ) from None
                if remaining <= _ABORT_POLL_S:
                    raise

    def probe_pending(self, rank: int, source: int, tag: int) -> bool:
        return self._mailboxes[rank].queue_for(source, tag).qsize() > 0

    def mailbox(self, rank: int) -> _Mailbox:
        return self._mailboxes[rank]

    def comm_for(self, rank: int) -> Communicator:
        comm = self._comms[rank]
        if comm is None:
            comm = self._comms[rank] = Communicator(self, rank)
        return comm

    # -- one-sided windows -------------------------------------------------------
    def window_create(self, window_id: int, rank: int, nbytes: int) -> _WindowSlot:
        slot = _WindowSlot(nbytes)
        with self._windows_lock:
            self._windows.setdefault(window_id, {})[rank] = slot
        return slot

    def window_free(self, window_id: int, rank: int) -> None:
        with self._windows_lock:
            slots = self._windows.get(window_id, {})
            slot = slots.pop(rank, None)
            if not slots:
                self._windows.pop(window_id, None)
        if slot is not None:
            slot.close()

    def window_slot(self, window_id: int, rank: int) -> _WindowSlot:
        with self._windows_lock:
            try:
                return self._windows[window_id][rank]
            except KeyError:
                raise SimMPIError(
                    f"window {window_id} not exposed by rank {rank} "
                    "(put before collective create completed?)"
                ) from None

    def charge_put_received(self, target_world_rank: int, nbytes: int) -> None:
        # Shared interpreter: charge the target's trace directly.
        self.comm_for(target_world_rank).trace.record_put_received(nbytes)

    # -- execution ---------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return results.

        Each rank gets its own :class:`Communicator` (created lazily so that
        traces survive in ``self.comms`` for post-mortem inspection).
        """
        results: List[Any] = [None] * self.size
        failures: Dict[int, BaseException] = {}
        failures_lock = threading.Lock()

        def runner(rank: int) -> None:
            comm = self.comm_for(rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported via WorldError
                with failures_lock:
                    failures[rank] = exc
                # Release peers stuck in the barrier or a recv so the run
                # fails fast.
                self.barrier.abort()

        threads = [
            threading.Thread(
                target=runner,
                args=(rank,),
                name=f"simmpi-rank-{rank}",
                # Daemonic: a rank that outlives the configured timeout must
                # not keep the interpreter alive after we report it stuck.
                daemon=True,
            )
            for rank in range(self.size)
        ]
        for t in threads:
            t.start()
        # Join against the world's timeout budget instead of forever: every
        # blocking primitive inside a rank already times out, but a rank
        # spinning in application code (or blocked outside the substrate)
        # would otherwise hang the whole run with no diagnosis.
        deadline = time.monotonic() + self.timeout
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
        stuck = [rank for rank, t in enumerate(threads) if t.is_alive()]
        if stuck:
            # Release peers waiting on the barrier, then give every rank a
            # short grace period to unwind before reporting.
            self.barrier.abort()
            grace = time.monotonic() + 1.0
            for t in threads:
                t.join(max(0.0, grace - time.monotonic()))
            stuck = [rank for rank, t in enumerate(threads) if t.is_alive()]
        if stuck:
            with failures_lock:
                for rank in stuck:
                    failures.setdefault(
                        rank,
                        DeadlockError(
                            f"rank {rank} did not finish within the world "
                            f"timeout of {self.timeout}s"
                        ),
                    )
        if failures:
            raise WorldError(failures)
        return results

    @property
    def comms(self) -> List[Optional[Communicator]]:
        """Communicators of the last run (for trace inspection)."""
        return self._comms


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    backend: Optional[str] = None,
    timeout: Optional[float] = None,
    **kwargs: Any,
) -> List[Any]:
    """One-shot convenience wrapper: create a world, run, return results.

    ``backend`` selects the execution backend (``"thread"`` default,
    ``"process"`` for fork-based multi-core execution; overridable via the
    ``REPRO_SPMD_BACKEND`` environment variable).  ``timeout`` defaults to
    ``REPRO_SPMD_TIMEOUT`` seconds when set, else 60 s.
    """
    return create_world(size, backend=backend, timeout=timeout).run(
        fn, *args, **kwargs
    )
