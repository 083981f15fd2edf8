"""MPI-3 style one-sided communication windows.

The paper's exchange phase relies on every rank exposing a window sized
*exactly* to the data it will receive, with each partner writing at an
offset it computed independently (Algorithm 3).  This module provides that
primitive: collective window creation, ``put`` into a remote window at a
byte offset, and ``fence`` epochs separating accumulation from local reads.

The class is backend-neutral: all storage and synchronisation is delegated
to the *slot* objects of the owning world (see
:class:`~repro.simmpi.backend.BaseWorld`) — a locked ``bytearray`` under
the thread backend, a ``multiprocessing.shared_memory`` segment under the
process backend, where a put is a genuine zero-copy cross-process write.

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
    :meth:`put` into any other rank's region.  A :meth:`fence` closes the
    epoch; afterwards :meth:`local_view` returns the accumulated bytes.
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
        """Collectively tear the window down."""
        self._comm.barrier()
        self._comm.world.window_free(self._id, self._comm.world_rank)

    @property
    def nbytes(self) -> int:
        """Size of the locally exposed region."""
        return self._nbytes

    # -- one sided access --------------------------------------------------------
    def put(self, data, target_rank: int, offset: int) -> None:
        """Write ``data`` into ``target_rank``'s region at byte ``offset``.

        Single-sided: the target takes no action.  Overlapping concurrent
        puts to disjoint ranges are safe (per-slot lock serialises the
        memcpy); overlapping *ranges* indicate a planning bug upstream and
        are not detected here — tests cover that via exact-packing checks.
        """
        payload = bytes(data)
        target_world = self._comm.world_rank_of(target_rank)
        slot = self._comm.world.window_slot(self._id, target_world)
        end = offset + len(payload)
        if offset < 0 or end > slot.nbytes:
            raise WindowError(
                f"put of {len(payload)}B at offset {offset} exceeds rank "
                f"{target_rank}'s window of {slot.nbytes}B"
            )
        remote = target_rank != self._comm.rank
        trace = self._comm.trace
        t0 = time.perf_counter() if trace.span_enabled else 0.0
        slot.write(((offset, payload),), remote)
        if remote:
            # Shared-memory backends charge the target's trace here; process
            # slots accounted inside write() and drain at the target's fence.
            self._comm.world.charge_put_received(target_world, len(payload))
            trace.record_put(len(payload))
            if trace.span_enabled:
                trace.metrics.histogram(
                    "put_latency_seconds", LATENCY_BUCKETS
                ).observe(time.perf_counter() - t0)

    def put_many(self, parts, target_rank: int) -> None:
        """Write several ``(offset, data)`` regions into ``target_rank``'s
        window under one lock acquisition and one trace record.

        The batched exchange primitive: a sender packs a partner's whole
        region (or several disjoint ones) and ships it with a single
        synchronised access, so the exchange critical section is entered
        once per partner instead of once per chunk.  Traced as one put of
        the total byte count.  Buffer-protocol objects (``bytes``, a
        ``memoryview`` of the sender's packing buffer, ...) are handed to the
        slot as byte views — the only copy is the one into the window.
        """
        staged = [
            (int(offset), memoryview(data).cast("B")) for offset, data in parts
        ]
        target_world = self._comm.world_rank_of(target_rank)
        slot = self._comm.world.window_slot(self._id, target_world)
        for offset, payload in staged:
            if offset < 0 or offset + len(payload) > slot.nbytes:
                raise WindowError(
                    f"put of {len(payload)}B at offset {offset} exceeds rank "
                    f"{target_rank}'s window of {slot.nbytes}B"
                )
        total = sum(len(payload) for _offset, payload in staged)
        remote = target_rank != self._comm.rank and total > 0
        trace = self._comm.trace
        t0 = time.perf_counter() if trace.span_enabled else 0.0
        slot.write(staged, remote)
        if remote:
            self._comm.world.charge_put_received(target_world, total)
            trace.record_put(total)
            if trace.span_enabled:
                trace.metrics.histogram(
                    "put_latency_seconds", LATENCY_BUCKETS
                ).observe(time.perf_counter() - t0)

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

    def local_view(self) -> bytes:
        """Bytes accumulated in this rank's own region (call after fence)."""
        return self._comm.world.window_slot(
            self._id, self._comm.world_rank
        ).snapshot()

    def local_filled(self) -> int:
        """Total bytes written into the local region so far."""
        return self._comm.world.window_slot(self._id, self._comm.world_rank).filled
