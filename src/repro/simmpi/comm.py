"""Point-to-point communicator handed to each SPMD rank.

Semantics mirror a small but faithful subset of MPI:

* ``send``/``recv`` match on ``(source, tag)``; messages between the same
  pair with the same tag are delivered in order (non-overtaking).
* user tags are non-negative; negative tags are reserved for the collective
  algorithms in :mod:`repro.simmpi.collectives`, which derive a fresh tag
  from a per-communicator collective sequence number so that back-to-back
  collectives can never steal each other's messages.
* every blocking operation has a timeout (default from the owning
  :class:`~repro.simmpi.world.World`) and raises
  :class:`~repro.simmpi.errors.DeadlockError` instead of hanging a test run.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Optional, Tuple

from repro.simmpi.errors import DeadlockError, PeerFailedError, SimMPIError
from repro.simmpi.trace import Trace, nbytes_of, resolve_trace_level


class _Mailbox:
    """Per-destination-rank mailbox with one FIFO queue per (source, tag)."""

    def __init__(self) -> None:
        self._queues: dict[Tuple[int, int], queue.SimpleQueue] = {}
        self._lock = threading.Lock()

    def queue_for(self, source: int, tag: int) -> queue.SimpleQueue:
        key = (source, tag)
        with self._lock:
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.SimpleQueue()
            return q

    def pending(self) -> int:
        with self._lock:
            return sum(q.qsize() for q in self._queues.values())


class Request:
    """Handle for a nonblocking operation (mirrors ``MPI_Request``).

    ``wait()`` blocks until completion and returns the received object
    (``None`` for sends); ``test()`` polls without blocking.
    """

    def __init__(
        self,
        ready: bool = False,
        comm: Optional["Communicator"] = None,
        source: int = -1,
        tag: int = 0,
    ) -> None:
        self._ready = ready
        self._comm = comm
        self._source = source
        self._tag = tag
        self._value: Any = None

    def test(self) -> Tuple[bool, Any]:
        """(completed?, value-if-completed) without blocking."""
        if self._ready:
            return True, self._value
        assert self._comm is not None
        if self._comm.probe(self._source, self._tag):
            self._value = self._comm.recv(self._source, tag=self._tag)
            self._ready = True
            return True, self._value
        return False, None

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the operation completes; returns the message."""
        if self._ready:
            return self._value
        assert self._comm is not None
        self._value = self._comm.recv(self._source, tag=self._tag, timeout=timeout)
        self._ready = True
        return self._value


class Communicator:
    """SPMD communicator for one rank of a :class:`~repro.simmpi.world.World`.

    Parameters
    ----------
    world:
        The owning world (shared mailboxes, barrier, window registry).
    rank:
        This rank's id in ``[0, world.size)``.
    """

    def __init__(self, world, rank: int) -> None:
        self._world = world
        self._rank = int(rank)
        self.trace = Trace(rank=self._rank)
        env_level = resolve_trace_level()
        if env_level is not None:
            self.trace.configure(env_level)
        self._coll_seq = 0

    # -- identity ------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank (``MPI_Comm_rank``)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the world (``MPI_Comm_size``)."""
        return self._world.size

    @property
    def world(self):
        return self._world

    @property
    def world_rank(self) -> int:
        """This rank's id in the top-level world (== rank for the base
        communicator; sub-communicators translate)."""
        return self._rank

    def world_rank_of(self, rank: int) -> int:
        """Translate a rank of THIS communicator to a world rank."""
        return rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(rank={self._rank}, size={self.size})"

    # -- internal tag management ---------------------------------------------
    def next_collective_tag(self) -> int:
        """Reserve a fresh negative tag for one collective invocation.

        SPMD programs call collectives in the same order on every rank, so
        the per-communicator sequence number advances in lockstep and the
        derived tag is identical on all ranks for the *same* collective and
        distinct across consecutive collectives.
        """
        self._coll_seq += 1
        return -self._coll_seq

    # -- point to point --------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> int:
        """Send ``obj`` to ``dest``; returns the charged payload size."""
        if not 0 <= dest < self.size:
            raise SimMPIError(f"send: dest {dest} out of range [0, {self.size})")
        if dest == self._rank:
            # Self-sends are legal (used by naive loops); charged zero wire
            # bytes since no NIC traffic would occur.
            self._world.post(dest, self._rank, tag, obj)
            return 0
        nbytes = nbytes_of(obj)
        self.trace.record_send(nbytes)
        self._world.post(dest, self._rank, tag, obj)
        return nbytes

    def recv(self, source: int, tag: int = 0, timeout: Optional[float] = None) -> Any:
        """Blocking receive matching ``(source, tag)``."""
        if not 0 <= source < self.size:
            raise SimMPIError(f"recv: source {source} out of range [0, {self.size})")
        limit = self._world.timeout if timeout is None else timeout
        try:
            obj = self._world.deliver(self._rank, source, tag, limit)
        except queue.Empty:
            raise DeadlockError(
                f"rank {self._rank}: recv(source={source}, tag={tag}) timed out "
                f"after {limit}s"
            ) from None
        if source != self._rank:
            self.trace.record_recv(nbytes_of(obj))
        return obj

    def sendrecv(
        self, obj: Any, dest: int, source: int, send_tag: int = 0, recv_tag: int = 0
    ) -> Any:
        """Combined send+recv (deadlock-free because sends never block)."""
        self.send(obj, dest, tag=send_tag)
        return self.recv(source, tag=recv_tag)

    # -- nonblocking point to point ---------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send.  Sends in this substrate are buffered and never
        block, so the request completes immediately; the API exists for MPI
        parity (overlap patterns port unchanged)."""
        self.send(obj, dest, tag=tag)
        return Request(ready=True)

    def irecv(self, source: int, tag: int = 0) -> "Request":
        """Nonblocking receive: returns a :class:`Request` whose ``wait()``
        (or a successful ``test()``) yields the message."""
        if not 0 <= source < self.size:
            raise SimMPIError(f"irecv: source {source} out of range [0, {self.size})")
        return Request(comm=self, source=source, tag=tag)

    def probe(self, source: int, tag: int = 0) -> bool:
        """True iff a matching message is already deliverable."""
        if not 0 <= source < self.size:
            raise SimMPIError(f"probe: source {source} out of range [0, {self.size})")
        return self._world.probe_pending(self._rank, source, tag)

    # -- synchronization -------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self.trace.record_round()
        timeout = self._world.timeout
        entered = time.monotonic()
        try:
            self._world.barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError:
            # An abort and a timeout break the barrier alike; only the rank
            # whose own wait ran out waited the full budget.
            if time.monotonic() - entered < timeout:
                raise PeerFailedError(
                    f"rank {self._rank}: barrier aborted because a peer rank "
                    "failed first (its failure is the root cause)"
                ) from None
            raise DeadlockError(
                f"rank {self._rank}: barrier timed out after {timeout}s"
            ) from None

    # -- sub-communicators ----------------------------------------------------
    def split(self, color: int, key: Optional[int] = None) -> "SubCommunicator":
        """Partition the communicator by ``color`` (``MPI_Comm_split``).

        Collective: every rank must call with its color.  Ranks sharing a
        color form a sub-communicator, ordered by ``key`` (default: parent
        rank).  Returns this rank's :class:`SubCommunicator`.
        """
        from repro.simmpi import collectives

        key = self._rank if key is None else key
        entries = collectives.allgather(self, (color, key, self._rank))
        members = sorted(
            (k, parent) for c, k, parent in entries if c == color
        )
        group = [parent for _k, parent in members]
        return SubCommunicator(self, group)


class SubCommunicator(Communicator):
    """A communicator over a subgroup of a parent's ranks.

    Messages travel through the parent (so worlds/mailboxes are shared),
    but ranks, sizes and collective tag sequences are local to the group —
    two sub-communicators of disjoint groups can run collectives fully
    concurrently.  The tag space is derived from the parent tag that
    created the group, keeping it disjoint from the parent's own traffic.
    """

    def __init__(self, parent: Communicator, group: list) -> None:
        if parent.rank not in group:
            raise SimMPIError("split(): calling rank missing from its group")
        self._parent = parent
        self._group = list(group)
        self._world = parent.world
        self._rank = self._group.index(parent.rank)
        self.trace = parent.trace  # traffic rolls up to the parent's trace
        self._coll_seq = 0
        self._world_group = [parent.world_rank_of(r) for r in self._group]
        # Disambiguate this subcomm's traffic/window-ids from the parent's,
        # from sibling groups of the same split (distinct min world rank)
        # and from later-created subcomms (distinct parent sequence).
        self._tag_salt = (
            (parent._coll_seq << 24) | (min(self._world_group) << 8) | 0x5C
        )

    @property
    def world_rank(self) -> int:  # type: ignore[override]
        return self._world_group[self._rank]

    def world_rank_of(self, rank: int) -> int:  # type: ignore[override]
        return self._world_group[rank]

    def next_collective_tag(self) -> int:
        """Subcomm collective tags carry the salt so window ids and internal
        messages can never collide with the parent's."""
        self._coll_seq += 1
        return -(self._coll_seq * 0x10000000000) - self._tag_salt

    @property
    def size(self) -> int:  # type: ignore[override]
        return len(self._group)

    @property
    def group(self) -> list:
        """Parent ranks of the group, in subcomm rank order."""
        return list(self._group)

    def _translate_tag(self, tag: int) -> int:
        # Separate positive (user) and negative (collective) tag spaces from
        # the parent's by a large salt; collisions would require ~2^40 tags.
        return tag * 0x10000 + self._tag_salt if tag >= 0 else (
            tag * 0x10000 - self._tag_salt
        )

    def send(self, obj: Any, dest: int, tag: int = 0) -> int:
        if not 0 <= dest < self.size:
            raise SimMPIError(f"send: dest {dest} out of range [0, {self.size})")
        return self._parent.send(obj, self._group[dest], tag=self._translate_tag(tag))

    def recv(self, source: int, tag: int = 0, timeout: Optional[float] = None) -> Any:
        if not 0 <= source < self.size:
            raise SimMPIError(f"recv: source {source} out of range [0, {self.size})")
        return self._parent.recv(
            self._group[source], tag=self._translate_tag(tag), timeout=timeout
        )

    def probe(self, source: int, tag: int = 0) -> bool:
        if not 0 <= source < self.size:
            raise SimMPIError(f"probe: source {source} out of range [0, {self.size})")
        return self._parent.probe(self._group[source], tag=self._translate_tag(tag))

    def barrier(self) -> None:  # type: ignore[override]
        """Group-local barrier via a gather+release on group rank 0 (the
        world barrier would deadlock across disjoint groups)."""
        from repro.simmpi import collectives

        collectives.bcast(
            self, collectives.gather(self, None, root=0) is not None, root=0
        )
