"""MPI-3 style one-sided communication windows.

The paper's exchange phase relies on every rank exposing a window sized
*exactly* to the data it will receive, with each partner writing at an
offset it computed independently (Algorithm 3).  This module provides that
primitive: collective window creation, ``put`` into a remote window at a
byte offset, and ``fence`` epochs separating accumulation from local reads.

The class is backend-neutral: all storage and synchronisation is delegated
to the *slot* objects of the owning world (see
:class:`~repro.simmpi.backend.BaseWorld`) — an anonymous memory mapping
under the thread backend, a ``multiprocessing.shared_memory`` segment under
the process backend.  On both, :meth:`Window.put_view` hands a sender the
target's memory itself and :meth:`Window.local_view` hands the owner its own,
so a replicated byte is copied once into the window and once out of it.

Out-of-bounds puts raise :class:`~repro.simmpi.errors.WindowError` — in the
reproduction this is the safety net that catches any error in the offset
calculation, exactly the class of bug the paper's planning phase must avoid.
"""

from __future__ import annotations

import time

from repro.obs.metrics import LATENCY_BUCKETS
from repro.simmpi.errors import WindowError
from repro.simmpi.comm import Communicator


class Window:
    """A collectively created one-sided window.

    Every rank calls :meth:`create` with its own exposure size (possibly 0).
    After creation the window is in an *exposure epoch*: any rank may
    :meth:`put` into any other rank's region, or fill a :meth:`put_view` of
    it in place.  A :meth:`fence` closes the epoch; afterwards
    :meth:`local_view` exposes the accumulated bytes.  Views of either kind
    are valid until :meth:`free`.
    """

    def __init__(self, comm: Communicator, window_id: int, nbytes: int) -> None:
        self._comm = comm
        self._id = window_id
        self._nbytes = int(nbytes)

    # -- lifecycle -------------------------------------------------------------
    @classmethod
    def create(cls, comm: Communicator, nbytes: int) -> "Window":
        """Collectively create a window exposing ``nbytes`` on this rank."""
        if nbytes < 0:
            raise WindowError(f"window size must be >= 0, got {nbytes}")
        window_id = comm.next_collective_tag()
        comm.world.window_create(window_id, comm.world_rank, nbytes)
        win = cls(comm, window_id, nbytes)
        comm.barrier()  # all ranks registered before any put can target them
        return win

    def free(self) -> None:
        """Collectively tear the window down, releasing every view of it."""
        self._comm.barrier()
        self._comm.world.window_free(self._id, self._comm.world_rank)

    @property
    def nbytes(self) -> int:
        """Size of the locally exposed region."""
        return self._nbytes

    # -- one sided access --------------------------------------------------------
    def _target_slot(self, target_rank: int, regions):
        """``target_rank``'s world rank and slot, once every ``(offset,
        nbytes)`` of ``regions`` is known to lie inside its window."""
        target_world = self._comm.world_rank_of(target_rank)
        slot = self._comm.world.window_slot(self._id, target_world)
        for offset, nbytes in regions:
            if offset < 0 or nbytes < 0 or offset + nbytes > slot.nbytes:
                raise WindowError(
                    f"put of {nbytes}B at offset {offset} exceeds rank "
                    f"{target_rank}'s window of {slot.nbytes}B"
                )
        return target_world, slot

    def _charge_put(self, target_world: int, nbytes: int) -> None:
        """Trace one remote put: the target's receive side, then ours.

        Shared-memory backends charge the target's trace here; process slots
        accounted inside ``account()`` and drain at the target's fence.
        """
        self._comm.world.charge_put_received(target_world, nbytes)
        self._comm.trace.record_put(nbytes)

    def _put(self, staged, total: int, target_rank: int, remote: bool) -> None:
        target_world, slot = self._target_slot(
            target_rank, ((offset, len(payload)) for offset, payload in staged)
        )
        trace = self._comm.trace
        t0 = time.perf_counter() if trace.span_enabled else 0.0
        slot.write(staged, remote)
        if remote:
            self._charge_put(target_world, total)
            if trace.span_enabled:
                trace.metrics.histogram(
                    "put_latency_seconds", LATENCY_BUCKETS
                ).observe(time.perf_counter() - t0)

    def put(self, data, target_rank: int, offset: int) -> None:
        """Write ``data`` into ``target_rank``'s region at byte ``offset``.

        Single-sided: the target takes no action.  ``data`` is handed to the
        slot as a byte view, so the only copy is the one into the window.
        Concurrent puts to disjoint ranges are safe; overlapping *ranges*
        indicate a planning bug upstream and are not detected here — tests
        cover that via exact-packing checks.
        """
        payload = memoryview(data).cast("B")
        self._put(
            ((int(offset), payload),),
            len(payload),
            target_rank,
            target_rank != self._comm.rank,
        )

    def put_many(self, parts, target_rank: int) -> None:
        """Write several ``(offset, data)`` regions into ``target_rank``'s
        window with one accounting update and one trace record.

        Traced as one put of the total byte count.  Buffer-protocol objects
        (``bytes``, a ``memoryview`` of a packing buffer, ...) are handed to
        the slot as byte views — the only copy is the one into the window.
        Nothing is written unless every region is in bounds.
        """
        staged = [
            (int(offset), memoryview(data).cast("B")) for offset, data in parts
        ]
        total = sum(len(payload) for _offset, payload in staged)
        self._put(
            staged, total, target_rank, target_rank != self._comm.rank and total > 0
        )

    def put_view(self, target_rank: int, offset: int, nbytes: int) -> memoryview:
        """A writable view of ``nbytes`` of ``target_rank``'s region at byte
        ``offset``, for the sender to fill in place.

        This is the exchange primitive: Algorithm 3 gives every sender the
        offset of its region in each partner's window, so it encodes its
        records straight into that region — no staging buffer, no second
        copy.  Granting the view is what counts as the put: ``nbytes`` is
        added to the target's ``filled`` and traced as one message of
        ``nbytes`` on both sides, whatever the sender then writes.  A region
        reaching outside the window raises :class:`WindowError`.

        Lifetime: fill the view before the :meth:`fence` that closes the
        epoch.  The window releases it at :meth:`free`; arrays or slices
        derived from it must be gone by then.
        """
        target_world, slot = self._target_slot(target_rank, ((offset, nbytes),))
        remote = target_rank != self._comm.rank and nbytes > 0
        view = slot.view(offset, nbytes)
        slot.account(nbytes, remote)
        if remote:
            self._charge_put(target_world, nbytes)
        return view

    def get(self, target_rank: int, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` from ``target_rank``'s region at ``offset``."""
        slot = self._comm.world.window_slot(
            self._id, self._comm.world_rank_of(target_rank)
        )
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > slot.nbytes:
            raise WindowError(
                f"get of {nbytes}B at offset {offset} exceeds rank "
                f"{target_rank}'s window of {slot.nbytes}B"
            )
        data = slot.read(offset, nbytes)
        if target_rank != self._comm.rank:
            self._comm.trace.record_get(nbytes)
        return data

    def fence(self) -> None:
        """Close the current access epoch (collective).

        Backends that cannot charge a target's receive trace at put time
        (isolated address spaces) accumulate the accounting in the slot;
        it is drained here — after the barrier, when every peer's puts of
        the closing epoch are guaranteed complete — into the owner's
        currently active trace phase.
        """
        self._comm.barrier()
        slot = self._comm.world.window_slot(self._id, self._comm.world_rank)
        nbytes, msgs = slot.take_received()
        if msgs:
            self._comm.trace.record_put_received(nbytes, msgs)

    def local_view(self) -> memoryview:
        """Read-only zero-copy view of this rank's own region (call after
        :meth:`fence`).

        The view is the window's memory, not a snapshot: it stays readable
        until :meth:`free`, which releases it (reading it afterwards raises
        ``ValueError``).  Copy what must outlive the window —
        ``bytes(view)`` — and drop arrays or slices derived from the view
        before freeing.
        """
        slot = self._comm.world.window_slot(self._id, self._comm.world_rank)
        return slot.view(0, slot.nbytes, readonly=True)

    def local_filled(self) -> int:
        """Total bytes written into the local region so far."""
        return self._comm.world.window_slot(self._id, self._comm.world_rank).filled
