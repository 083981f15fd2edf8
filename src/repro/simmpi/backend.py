"""Pluggable SPMD execution backends.

The substrate runs the same SPMD program over interchangeable *execution
backends*.  A backend is a concrete ``World``: it owns everything shared
between ranks (point-to-point transport, the barrier, the one-sided window
registry) and knows how to launch one unit of execution per rank.  Two
backends ship:

* ``"thread"`` — :class:`repro.simmpi.world.World`: every rank is a thread
  of the calling interpreter.  Zero setup cost, shared-everything (tests
  can hand ranks arbitrary shared objects), but the GIL serialises the
  compute-heavy phases of a dump.
* ``"process"`` — :class:`repro.simmpi.procworld.ProcessWorld`: every rank
  is a forked OS process; one-sided windows live in
  ``multiprocessing.shared_memory`` segments so ``Window.put``/``put_many``
  are genuine zero-copy cross-process writes, ``put_view``/``local_view``
  are slices of the segment itself, and ranks fingerprint, dedup and pack
  in parallel across cores.

:class:`~repro.simmpi.comm.Communicator`, the collective algorithms and
:class:`~repro.simmpi.window.Window` are written against the abstract
:class:`BaseWorld` contract below, so they run unchanged over either
backend.

Defaults are environment-overridable so large benchmark runs need no code
changes: ``REPRO_SPMD_TIMEOUT`` (seconds, replaces the 60 s default world
timeout) and ``REPRO_SPMD_BACKEND`` (``thread``/``process``).
"""

from __future__ import annotations

import abc
import contextlib
import os
from typing import Any, Callable, Iterator, List, Optional

from repro.simmpi.errors import SimMPIError, WindowError

#: Fallback world timeout (seconds) when neither ``timeout=`` nor the
#: ``REPRO_SPMD_TIMEOUT`` environment variable is given.
DEFAULT_TIMEOUT = 60.0
TIMEOUT_ENV = "REPRO_SPMD_TIMEOUT"
BACKEND_ENV = "REPRO_SPMD_BACKEND"

#: Canonical backend names, in preference order.
BACKENDS = ("thread", "process")


def resolve_timeout(timeout: Optional[float] = None) -> float:
    """An explicit timeout, else ``$REPRO_SPMD_TIMEOUT``, else 60 s."""
    if timeout is not None:
        return float(timeout)
    raw = os.environ.get(TIMEOUT_ENV)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise SimMPIError(
                f"invalid {TIMEOUT_ENV}={raw!r}: expected a number of seconds"
            ) from None
        if value <= 0:
            raise SimMPIError(f"{TIMEOUT_ENV} must be > 0, got {value}")
        return value
    return DEFAULT_TIMEOUT


def normalize_backend(backend: Optional[str]) -> str:
    """Canonical backend name for ``backend`` (None -> env -> ``thread``)."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "thread"
    name = str(backend).lower()
    if name in ("thread", "threads", "threading"):
        return "thread"
    if name in ("process", "processes", "proc", "mp"):
        return "process"
    raise SimMPIError(
        f"unknown SPMD backend {backend!r}; expected one of {list(BACKENDS)}"
    )


def world_class(backend: Optional[str]):
    """The concrete ``World`` class registered under ``backend``."""
    name = normalize_backend(backend)
    # Imported lazily: world/procworld themselves import this module.
    if name == "thread":
        from repro.simmpi.world import World

        return World
    from repro.simmpi.procworld import ProcessWorld

    return ProcessWorld


def create_world(
    size: int, backend: Optional[str] = None, timeout: Optional[float] = None
):
    """Instantiate the world for ``backend`` (default: env, then thread)."""
    return world_class(backend)(size, timeout=timeout)


@contextlib.contextmanager
def releasing(views: List[memoryview]) -> Iterator[None]:
    """Release the window views a slot handed out, then run the body that
    unmaps the slot's memory; every slot's ``close()`` is built on this.

    Memory that still backs an array or a slice cannot be unmapped.  Its
    holder broke the lifetime rule of
    :meth:`~repro.simmpi.window.Window.local_view`, and the
    :class:`~repro.simmpi.errors.WindowError` says so where a bare
    ``BufferError`` from the unmap would not.
    """
    try:
        for view in views:
            view.release()
        views.clear()
        yield
    except BufferError:
        raise WindowError(
            "window freed while an array or slice derived from one of its "
            "views is still alive; drop it (or copy with bytes()) before "
            "free()"
        ) from None


class BaseWorld(abc.ABC):
    """Contract every execution backend implements.

    A world is the shared state of one SPMD execution of ``size`` ranks.
    :class:`~repro.simmpi.comm.Communicator` and
    :class:`~repro.simmpi.window.Window` talk to their world exclusively
    through this interface, which splits into three groups:

    **Point-to-point transport** — :meth:`post` enqueues a message for a
    rank; :meth:`deliver` blocks for the matching ``(source, tag)`` message
    (raising :class:`queue.Empty` on timeout — the communicator converts it
    to a :class:`~repro.simmpi.errors.DeadlockError`); :meth:`probe_pending`
    answers "is a matching message already deliverable?".

    **One-sided windows** — :meth:`window_create` exposes ``nbytes`` of a
    rank's memory under a collectively agreed id and returns a *slot*;
    :meth:`window_slot` resolves any rank's slot for remote access.  A slot
    implements the small protocol the :class:`~repro.simmpi.window.Window`
    drives: ``nbytes``, ``filled``, ``view(offset, nbytes, readonly)`` (a
    zero-copy view of the exposed memory, tracked so that ``close()`` can
    release it), ``account(nbytes, remote)`` (count a put),
    ``write(staged, remote)`` (batched memcpy plus its accounting),
    ``read(offset, nbytes)``, ``take_received()`` (drain receive accounting
    deferred to fence time — ``(0, 0)`` for backends that charge inline) and
    ``close()`` (release the views, unmap; called by :meth:`window_free`).

    **Execution** — :meth:`run` launches ``fn(comm, *args, **kwargs)`` on
    every rank and returns the rank-ordered results; any rank failure
    aborts the run and is re-raised as a
    :class:`~repro.simmpi.errors.WorldError` keyed by rank.  Backends must
    also expose ``barrier`` (an object with ``wait(timeout)`` raising
    :class:`threading.BrokenBarrierError` on abort/timeout), ``size``,
    ``timeout`` and ``comms`` (per-rank communicators of the last run, for
    trace inspection).
    """

    #: registry name of the backend ("thread", "process")
    backend_name: str = "abstract"

    size: int
    timeout: float

    # -- execution -----------------------------------------------------------
    @abc.abstractmethod
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return results."""

    @abc.abstractmethod
    def comm_for(self, rank: int):
        """This world's communicator for ``rank`` (created lazily)."""

    # -- point-to-point transport ----------------------------------------------
    @abc.abstractmethod
    def post(self, dest: int, source: int, tag: int, obj: Any) -> None:
        """Enqueue ``obj`` for ``dest`` under ``(source, tag)`` (never blocks)."""

    @abc.abstractmethod
    def deliver(self, rank: int, source: int, tag: int, timeout: float) -> Any:
        """Next message for ``rank`` matching ``(source, tag)``.

        Raises :class:`queue.Empty` when nothing arrives within ``timeout``.
        """

    @abc.abstractmethod
    def probe_pending(self, rank: int, source: int, tag: int) -> bool:
        """True iff a matching message is already deliverable."""

    # -- one-sided windows -------------------------------------------------------
    @abc.abstractmethod
    def window_create(self, window_id: int, rank: int, nbytes: int):
        """Expose ``nbytes`` for ``rank`` under ``window_id``; returns the slot."""

    @abc.abstractmethod
    def window_slot(self, window_id: int, rank: int):
        """The slot ``rank`` exposed under ``window_id`` (for remote access)."""

    @abc.abstractmethod
    def window_free(self, window_id: int, rank: int) -> None:
        """Tear down ``rank``'s exposure (and any cached remote handles)."""

    def charge_put_received(self, target_world_rank: int, nbytes: int) -> None:
        """Charge a remote put to the *target's* receive trace.

        Shared-memory backends do this inline; isolated-memory backends
        account in the slot instead (drained by ``take_received`` at fence
        time) and keep the default no-op.
        """

    # -- result blobs ------------------------------------------------------------
    #
    # Large per-rank results (e.g. the cluster deltas of the process
    # backend's merge-back protocol) can be handed from rank to parent out
    # of band: a rank *stages* the result, writing it once into a buffer
    # the world provides, and returns a small handle through the normal
    # result channel; the caller *opens* the handle after run() to read the
    # bytes.  Shared-everything backends keep these trivial defaults — the
    # buffer itself is the handle.

    def stage_result(
        self, rank: int, nbytes: int, fill: Callable[[memoryview], None]
    ) -> Any:
        """Let ``fill(view)`` write an ``nbytes`` result into a writable
        buffer parked for out-of-band hand-off; return a handle."""
        buffer = bytearray(nbytes)
        fill(memoryview(buffer))
        return buffer

    def stage_result_blob(self, rank: int, blob) -> Any:
        """:meth:`stage_result` for a blob that already exists."""

        def fill(view: memoryview) -> None:
            view[:] = blob

        return self.stage_result(rank, len(blob), fill)

    def open_result_blob(self, handle):
        """Context manager yielding the staged blob's buffer (single use)."""

        @contextlib.contextmanager
        def _open():
            yield memoryview(handle)

        return _open()

    def sweep_result_blobs(self) -> None:
        """Reclaim staged blobs that were never opened (failure paths)."""
