"""Process-parallel SPMD backend with shared-memory one-sided windows.

Every rank is a forked OS process, so the compute-heavy phases of a dump —
SHA-1 fingerprinting, packing, region decode, store commits — run genuinely
in parallel across cores instead of interleaving under the GIL.  The three
shared facilities of the :class:`~repro.simmpi.backend.BaseWorld` contract
map onto ``multiprocessing`` primitives:

* **point-to-point** — one ``multiprocessing.Queue`` inbox per rank; each
  child demultiplexes its inbox into per-``(source, tag)`` deques, which
  preserves the non-overtaking guarantee of the thread backend.  Self-sends
  short-circuit through the local deque (no pickling).
* **barrier** — a ``multiprocessing.Barrier`` created per run and inherited
  through the fork; it raises the same :class:`threading.BrokenBarrierError`
  the communicator already handles.
* **one-sided windows** — every exposure is a ``multiprocessing.shared_memory``
  segment named deterministically from ``(world uid, run, window id, rank)``,
  so any rank attaches a partner's window lazily by name and a
  ``Window.put``/``put_many`` is a true zero-copy cross-process memcpy.  A
  32-byte header (logical size, filled counter, deferred receive
  accounting) rides in front of the payload; access is serialised by a
  striped pool of ``multiprocessing.Lock`` objects shared by all ranks.

Failure semantics match the thread backend: exceptions raised by a rank are
pickled back and re-raised inside a :class:`~repro.simmpi.errors.WorldError`;
a rank whose *process* dies hard (killed, segfault, ``os._exit``) surfaces
as a :class:`~repro.simmpi.errors.RankCrashError` entry rather than a hang,
and stragglers are reported as :class:`~repro.simmpi.errors.DeadlockError`
after the world timeout — the same contract the failure-injection and
dead-node dump machinery is written against.

Fork-only (POSIX): rank functions, their closures and the inherited cluster
state need no pickling.  Rank results *are* pickled back to the parent, so
programs must return picklable values — every report/dataclass in this
library is.  Forked ranks write to copies of in-memory storage; see
:func:`repro.core.runner.run_collective` for the delta-merge driver that
folds those writes back into the caller's cluster.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing.connection
import os
import pickle
import queue
import struct
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from multiprocessing import shared_memory

from repro.simmpi.backend import BaseWorld, releasing, resolve_timeout
from repro.simmpi.comm import Communicator
from repro.simmpi.errors import (
    DeadlockError,
    RankCrashError,
    SimMPIError,
    WindowError,
    WorldError,
)

#: slot header: u64 logical nbytes | u64 filled | u64 recv bytes | u64 recv msgs
_HEADER = 32
#: striped cross-process lock pool shared by every window slot
_N_LOCKS = 64
#: extra parent-side budget past the world timeout, so ranks that diagnose
#: their own DeadlockError (their blocking ops time out first) get their
#: report collected before the parent declares them stuck
_COLLECT_SLACK = 2.0
#: how long a dead child's result may lag in the pipe before it counts as
#: a hard crash
_CRASH_GRACE = 0.5


def _untrack(shm: shared_memory.SharedMemory) -> bool:
    """Best-effort resource-tracker unregistration of ``shm``.

    Pre-3.13 interpreters register every segment with the resource tracker
    under the private ``shm._name`` attribute (the OS-level name, with the
    platform's leading slash).  That attribute is a CPython implementation
    detail: if it is gone or has changed shape, we must NOT guess a name to
    unregister — unregistering the wrong entry could leak someone else's
    segment.  Returns True when the segment was unregistered; on False the
    caller degrades to a *tracked* segment, which at worst produces a
    harmless tracker warning at interpreter exit, never a crash.
    """
    raw = getattr(shm, "_name", None)
    if not isinstance(raw, str) or not raw:
        return False
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(raw, "shared_memory")
        return True
    except Exception:
        return False


def _map_readonly(fileno: int) -> mmap.mmap:
    """Map a whole file read-only.  The mapping outlives the descriptor it
    was made from, but before Python 3.13 (``trackfd=False``) it keeps a
    duplicate of it open until it is unmapped."""
    try:
        return mmap.mmap(fileno, 0, access=mmap.ACCESS_READ, trackfd=False)
    except TypeError:  # Python < 3.13
        return mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Before Python 3.13 every attach registers with the resource tracker,
    which then unlinks the segment when the *attaching* process exits —
    yanking live windows out from under their owner.  3.13+ has
    ``track=False``; earlier interpreters get an explicit unregister via
    :func:`_untrack`, guarded so a CPython internals change degrades to a
    tracked segment instead of crashing the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13
        shm = shared_memory.SharedMemory(name=name, create=False)
        _untrack(shm)
        return shm


class _ShmSlot:
    """One rank's exposed shared-memory region plus its striped lock.

    Layout: ``[u64 nbytes][u64 filled][u64 recv_bytes][u64 recv_msgs]``
    followed by ``nbytes`` of payload (the OS may round the segment up to a
    page, hence the explicit logical size).  ``recv_*`` accumulate remote
    puts for the owner to drain at fence time
    (:meth:`~repro.simmpi.window.Window.fence` -> :meth:`take_received`),
    since a writer cannot reach the owner's trace across address spaces.
    """

    __slots__ = ("_shm", "nbytes", "_lock", "_views")

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int, lock) -> None:
        self._shm = shm
        self.nbytes = int(nbytes)
        self._lock = lock
        self._views: List[memoryview] = []

    def view(self, offset: int, nbytes: int, readonly: bool = False) -> memoryview:
        """Zero-copy view of ``[offset, offset + nbytes)`` of the segment,
        released by :meth:`close` (an exported view would make unmapping the
        segment raise ``BufferError``)."""
        view = self._shm.buf[_HEADER + offset : _HEADER + offset + nbytes]
        if readonly:
            view = view.toreadonly()
        self._views.append(view)
        return view

    def account(self, nbytes: int, remote: bool) -> None:
        buf = self._shm.buf
        with self._lock:
            filled, rbytes, rmsgs = struct.unpack_from("<QQQ", buf, 8)
            filled += nbytes
            if remote:
                rbytes += nbytes
                rmsgs += 1
            struct.pack_into("<QQQ", buf, 8, filled, rbytes, rmsgs)

    def write(self, staged, remote: bool) -> None:
        buf = self._shm.buf
        total = 0
        for offset, payload in staged:
            n = len(payload)
            buf[_HEADER + offset : _HEADER + offset + n] = payload
            total += n
        self.account(total, remote)

    def read(self, offset: int, nbytes: int) -> bytes:
        return bytes(self._shm.buf[_HEADER + offset : _HEADER + offset + nbytes])

    @property
    def filled(self) -> int:
        with self._lock:
            return struct.unpack_from("<Q", self._shm.buf, 8)[0]

    def take_received(self) -> Tuple[int, int]:
        with self._lock:
            rbytes, rmsgs = struct.unpack_from("<QQ", self._shm.buf, 16)
            struct.pack_into("<QQ", self._shm.buf, 16, 0, 0)
        return int(rbytes), int(rmsgs)

    def close(self) -> None:
        with releasing(self._views):
            self._shm.close()


class _RemoteFailure:
    """Transportable wrapper for an exception raised inside a rank process."""

    def __init__(self, exc: BaseException) -> None:
        self.summary = repr(exc)
        self.trailer = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        try:
            self.payload: Optional[bytes] = pickle.dumps(exc)
        except Exception:
            self.payload = None

    def to_exception(self) -> BaseException:
        if self.payload is not None:
            try:
                return pickle.loads(self.payload)
            except Exception:
                pass
        return RankCrashError(
            f"rank raised an untransportable exception: {self.summary}\n"
            f"{self.trailer}"
        )


class ProcessWorld(BaseWorld):
    """Process backend: one forked OS process per rank.

    Drop-in for the thread :class:`~repro.simmpi.world.World` — same
    communicator, collectives and window API — with genuinely parallel rank
    execution.  Differences that leak through the interface:

    * rank results (and messages) must be picklable;
    * ranks see *copies* of objects captured at fork time — shared mutable
      state written by one rank is not visible to others or to the parent
      except through the substrate (messages, windows) or an explicit
      merge such as :func:`repro.core.runner.run_collective`'s cluster
      delta fold;
    * ``comms`` carries parent-side communicator shells holding each
      rank's transported trace after a run.
    """

    backend_name = "process"

    def __init__(self, size: int, timeout: Optional[float] = None) -> None:
        if size < 1:
            raise SimMPIError(f"world size must be >= 1, got {size}")
        self.size = int(size)
        self.timeout = resolve_timeout(timeout)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise SimMPIError(
                "the process backend requires the fork start method (POSIX)"
            ) from None
        self._locks = [self._ctx.Lock() for _ in range(_N_LOCKS)]
        self._uid = f"{os.getpid():x}x{os.urandom(3).hex()}"
        self._run_seq = 0
        self._blob_seq = 0
        self._comms: List[Optional[Communicator]] = [None] * self.size
        # Per-run shared plumbing (created in run(), inherited by fork).
        self.barrier = None
        self._inboxes: Optional[List[Any]] = None
        # Child-side state (only populated after the fork, in the child).
        self._child_rank: Optional[int] = None
        self._buffered: Dict[Tuple[int, int], deque] = {}
        self._open_slots: Dict[Tuple[int, int], _ShmSlot] = {}
        self._owned_shm: Dict[Tuple[int, int], shared_memory.SharedMemory] = {}

    # -- identity / inspection ---------------------------------------------------
    def comm_for(self, rank: int) -> Communicator:
        comm = self._comms[rank]
        if comm is None:
            comm = self._comms[rank] = Communicator(self, rank)
        return comm

    @property
    def comms(self) -> List[Optional[Communicator]]:
        """Communicators of the last run (parent side: transported traces)."""
        return self._comms

    # -- point-to-point transport ----------------------------------------------
    def post(self, dest: int, source: int, tag: int, obj: Any) -> None:
        if dest == self._child_rank:
            # Self-send: straight into the local deque, no pickling.
            self._buffered.setdefault((source, tag), deque()).append(obj)
            return
        self._inboxes[dest].put((source, tag, obj))

    def deliver(self, rank: int, source: int, tag: int, timeout: float) -> Any:
        key = (source, tag)
        pending = self._buffered.get(key)
        if pending:
            return pending.popleft()
        inbox = self._inboxes[rank]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise queue.Empty
            src, t, obj = inbox.get(timeout=remaining)  # raises queue.Empty
            if (src, t) == key:
                return obj
            self._buffered.setdefault((src, t), deque()).append(obj)

    def probe_pending(self, rank: int, source: int, tag: int) -> bool:
        inbox = self._inboxes[rank]
        while True:
            try:
                src, t, obj = inbox.get_nowait()
            except queue.Empty:
                break
            self._buffered.setdefault((src, t), deque()).append(obj)
        return bool(self._buffered.get((source, tag)))

    # -- one-sided windows -------------------------------------------------------
    def _shm_name(self, window_id: int, rank: int) -> str:
        sign = "n" if window_id < 0 else "p"
        return f"psm{self._uid}-{self._run_seq}-{sign}{abs(window_id):x}-{rank}"

    def _lock_for(self, window_id: int, rank: int):
        return self._locks[(abs(window_id) * 1000003 + rank) % _N_LOCKS]

    def window_create(self, window_id: int, rank: int, nbytes: int) -> _ShmSlot:
        shm = shared_memory.SharedMemory(
            name=self._shm_name(window_id, rank),
            create=True,
            size=_HEADER + max(1, nbytes),
        )
        struct.pack_into("<QQQQ", shm.buf, 0, nbytes, 0, 0, 0)
        slot = _ShmSlot(shm, nbytes, self._lock_for(window_id, rank))
        self._owned_shm[(window_id, rank)] = shm
        self._open_slots[(window_id, rank)] = slot
        return slot

    def window_slot(self, window_id: int, rank: int) -> _ShmSlot:
        slot = self._open_slots.get((window_id, rank))
        if slot is None:
            try:
                shm = _attach_untracked(self._shm_name(window_id, rank))
            except FileNotFoundError:
                raise SimMPIError(
                    f"window {window_id} not exposed by rank {rank} "
                    "(put before collective create completed?)"
                ) from None
            nbytes = struct.unpack_from("<Q", shm.buf, 0)[0]
            slot = _ShmSlot(shm, int(nbytes), self._lock_for(window_id, rank))
            self._open_slots[(window_id, rank)] = slot
        return slot

    def window_free(self, window_id: int, rank: int) -> None:
        # Close every cached handle of this window (own and partners').
        for key in [k for k in self._open_slots if k[0] == window_id]:
            self._open_slots.pop(key).close()
        shm = self._owned_shm.pop((window_id, rank), None)
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    # charge_put_received: inherited no-op — remote puts are accounted in the
    # slot header by write(remote=True) and drained at the owner's fence.

    # -- result blobs (zero-copy child -> parent hand-off) -----------------------
    #
    # Large rank results — the cluster deltas of the merge-back protocol
    # (see repro.storage.delta_codec) — would otherwise be pickled through
    # the result queue's pipe.  Instead a child writes the blob straight
    # into a dedicated shared-memory segment and ships only (name, nbytes);
    # the parent maps the segment after run(), unlinks its name at once and
    # reads it in place: what the consumer keeps of it (the stores keep the
    # chunk payloads) keeps the mapping alive, and the last view to die
    # unmaps it.  The segments use the distinct "psr" prefix: the per-run
    # "psm" sweep must NOT reclaim them (the parent reads them *after*
    # run() returns) — they are reclaimed by open_result_blob itself, by
    # sweep_result_blobs() on failure paths, and at the next run() start.

    def _result_blob_prefix(self) -> str:
        return f"psr{self._uid}-"

    def stage_result(
        self, rank: int, nbytes: int, fill: Callable[[memoryview], None]
    ) -> Any:
        """Child side: create a fresh shared segment of ``nbytes``, let
        ``fill(view)`` write the result into it, and return a small
        transportable handle.  Falls back to shipping the bytes inline
        (through the result pickle) if the segment cannot be created."""
        self._blob_seq += 1
        name = f"{self._result_blob_prefix()}{self._run_seq}-{rank}-{self._blob_seq}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, nbytes)
            )
        except Exception:
            return ("inline", bytes(super().stage_result(rank, nbytes, fill)))
        try:
            fill(shm.buf[:nbytes])
        except BaseException:
            # The traceback may still view the mapping, so it cannot be
            # closed here; the name must not outlive the failure.
            shm.unlink()
            raise
        # The child must not let its exit unlink the segment before the
        # parent reads it: unregister from the tracker (guarded — on
        # failure the segment stays tracked, worst case a tracker warning).
        _untrack(shm)
        shm.close()
        return ("shm", name, nbytes)

    @contextlib.contextmanager
    def open_result_blob(self, handle):
        """Parent side: context manager yielding the staged blob's buffer.

        A handle is single-use: the segment's name is unlinked as soon as
        the mapping exists, so no later exit of this process, a ``SIGKILL``
        included, can strand it.  The buffer is a read-only view of the
        mapping; views the consumer keeps past the ``with`` block stay
        valid, and the mapping is freed when the last of them dies.
        """
        if handle[0] == "inline":
            yield memoryview(handle[1])
            return
        _kind, name, nbytes = handle
        # Map the segment as the plain /dev/shm file it is on Linux (the
        # same assumption _sweep_leaked_shm makes) instead of attaching
        # through SharedMemory: a pre-3.13 attach would register with the
        # resource tracker and thereby *spawn* a tracker in the parent,
        # which later forks then share — and the children's per-segment
        # register/unregister toggling is only balanced against private
        # per-child trackers.
        path = os.path.join("/dev/shm", name)
        try:
            f = open(path, "rb")
        except OSError:
            # Not a /dev/shm platform: attach through SharedMemory (spawning
            # a tracker beats failing; the tracked attach and the unlink
            # balance in it) and copy the blob out, since a SharedMemory
            # cannot be closed under a consumer's views.
            shm = shared_memory.SharedMemory(name=name)
            try:
                shm.unlink()
                blob = bytes(shm.buf[:nbytes])
            finally:
                shm.close()
            yield memoryview(blob)
            return
        with f:
            try:
                mm = _map_readonly(f.fileno())
            except ValueError:
                # Zero-length file (empty blob staged in a 1-byte segment
                # is never zero-length; this is pure defence).
                mm = b""
            finally:
                os.unlink(path)
        yield memoryview(mm)[:nbytes]

    def sweep_result_blobs(self) -> None:
        """Unlink staged result segments that were never consumed (failed
        runs, crashed children).  Called at run() start and by the
        merge-back driver's failure paths."""
        shm_dir = "/dev/shm"
        prefix = self._result_blob_prefix()
        if not os.path.isdir(shm_dir):
            return
        try:
            names = os.listdir(shm_dir)
        except OSError:
            return
        for name in names:
            if name.startswith(prefix):
                try:
                    os.unlink(os.path.join(shm_dir, name))
                except OSError:
                    pass

    # -- execution ---------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Fork one process per rank running ``fn(comm, *args, **kwargs)``.

        Returns rank-ordered results; failures (exceptions, hard process
        deaths, timeouts) are raised as one :class:`WorldError` keyed by
        rank, exactly like the thread backend.
        """
        ctx = self._ctx
        self._run_seq += 1
        # Any result blob still staged now belongs to a previous (failed or
        # unconsumed) run; reclaim before forking fresh children.
        self.sweep_result_blobs()
        self.barrier = ctx.Barrier(self.size)
        self._inboxes = [ctx.Queue() for _ in range(self.size)]
        # One pipe for all results.  ``send`` pickles synchronously in the
        # child (serialisation errors are catchable there), writes under a
        # lock shared by the ranks, and nothing is lost in a feeder thread if
        # the child dies right after reporting.
        reader, writer = ctx.Pipe(duplex=False)
        report_lock = ctx.Lock()

        def report(record) -> None:
            with report_lock:
                writer.send(record)

        procs = [
            ctx.Process(
                target=self._child_main,
                args=(rank, report, fn, args, kwargs),
                name=f"simmpi-proc-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.size)
        ]
        for p in procs:
            p.start()

        results: List[Any] = [None] * self.size
        traces: List[Any] = [None] * self.size
        failures: Dict[int, BaseException] = {}
        pending = set(range(self.size))
        dead_since: Dict[int, float] = {}

        def abort_barrier() -> None:
            try:
                self.barrier.abort()
            except Exception:
                pass

        def absorb(record) -> None:
            rank, status, payload, trace = record
            pending.discard(rank)
            dead_since.pop(rank, None)
            traces[rank] = trace
            if status == "ok":
                results[rank] = payload
            else:
                failures[rank] = payload.to_exception()

        deadline = time.monotonic() + self.timeout + _COLLECT_SLACK
        while pending:
            if reader.poll():
                absorb(reader.recv())
                continue
            now = time.monotonic()
            if now >= deadline:
                break
            wake = deadline
            for rank in sorted(pending):
                if procs[rank].exitcode is None:
                    continue
                # Dead process: give its (possibly in-flight) report a short
                # grace before declaring a hard crash.
                crash_at = dead_since.setdefault(rank, now) + _CRASH_GRACE
                if now < crash_at:
                    wake = min(wake, crash_at)
                    continue
                failures[rank] = RankCrashError(
                    f"rank {rank} process exited with code "
                    f"{procs[rank].exitcode} without reporting a result"
                )
                pending.discard(rank)
                abort_barrier()
            # Sleep until a result arrives, a live rank's process ends, a dead
            # rank's grace runs out or the world's budget does.
            alive = [procs[r].sentinel for r in pending if r not in dead_since]
            multiprocessing.connection.wait([reader] + alive, max(0.0, wake - now))

        if pending:
            # Stragglers past the world budget: release the barrier, grant a
            # short grace to unwind, then report them stuck.
            abort_barrier()
            grace = time.monotonic() + 1.0
            while pending and reader.poll(max(0.0, grace - time.monotonic())):
                absorb(reader.recv())
            for rank in sorted(pending):
                failures[rank] = DeadlockError(
                    f"rank {rank} did not finish within the world timeout "
                    f"of {self.timeout}s"
                )

        for p in procs:
            p.join(timeout=0.25)
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(timeout=1.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)

        # Parent-side communicator shells carrying the transported traces.
        for rank, trace in enumerate(traces):
            if trace is not None:
                comm = Communicator(self, rank)
                comm.trace = trace
                self._comms[rank] = comm

        self._sweep_leaked_shm()
        reader.close()
        writer.close()
        for inbox in self._inboxes:
            inbox.close()
        self._inboxes = None
        if failures:
            raise WorldError(failures)
        return results

    def _child_main(self, rank, report, fn, args, kwargs) -> None:
        self._child_rank = rank
        self._buffered = {}
        self._open_slots = {}
        self._owned_shm = {}
        self._blob_seq = 0
        comm = self.comm_for(rank)
        status: str = "ok"
        payload: Any = None
        try:
            payload = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - transported via WorldError
            status, payload = "err", _RemoteFailure(exc)
            try:
                self.barrier.abort()  # release peers stuck in the barrier
            except Exception:
                pass
        finally:
            try:
                report((rank, status, payload, comm.trace))
            except Exception as exc:  # unpicklable result/trace
                report((rank, "err", _RemoteFailure(exc), None))
            self._release_all_shm()

    def _release_all_shm(self) -> None:
        """Child-side safety net: close attachments, unlink own segments.

        The normal path already freed every window; this covers exception
        exits so segments do not outlive the run.  Such an exit may leave a
        window view alive in its traceback: the mapping then lasts until the
        process ends, and the unlink below still removes the segment.
        """
        for slot in self._open_slots.values():
            try:
                slot.close()
            except WindowError:
                pass
        for shm in self._owned_shm.values():
            try:
                shm.unlink()
            except Exception:
                pass
        self._open_slots.clear()
        self._owned_shm.clear()

    def _sweep_leaked_shm(self) -> None:
        """Parent-side safety net: unlink segments of hard-killed children."""
        shm_dir = "/dev/shm"
        prefix = f"psm{self._uid}-{self._run_seq}-"
        if not os.path.isdir(shm_dir):
            return
        try:
            names = os.listdir(shm_dir)
        except OSError:
            return
        for name in names:
            if name.startswith(prefix):
                try:
                    os.unlink(os.path.join(shm_dir, name))
                except OSError:
                    pass
