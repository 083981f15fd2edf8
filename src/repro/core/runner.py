"""Backend-dispatching driver for collectives that mutate a cluster.

``run_spmd`` is enough for programs whose only outputs are their return
values.  The dump/restore/repair collectives additionally *write into the
in-memory cluster* — invisible to the parent under the process backend,
where every forked rank mutates its own copy-on-write copy.

:func:`run_collective` closes that gap with a delta protocol: under the
process backend each rank marks its inherited cluster copy before the
program runs, collects a :class:`~repro.storage.local_store.ClusterDelta`
afterwards, lays it out as one RCD1 frame
(:mod:`repro.storage.delta_codec`), writes that frame once into a
shared-memory segment of exactly its size
(:meth:`~repro.simmpi.backend.BaseWorld.stage_result`), and ships back only
the segment handle alongside its result; the parent maps each segment,
validates and decodes the delta out of it and folds it into the real
cluster, whose stores keep the chunk payloads as read-only views of the
mapping: a stored byte crosses the process boundary once, and the mapping
lives until the last chunk cut from it is discarded (DESIGN.md "Merge-back:
one write, one mapping").
Deltas are additive and commutative, so the merged cluster is
byte-identical to what a thread-backend run leaves behind — manifests,
chunk payloads, refcounts and accounting included — but nothing heavier
than a handle ever crosses the result pipe.

Under the thread backend (shared memory) the program runs as-is.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, List, Optional, Tuple

from repro.core.frame import FrameError
from repro.simmpi.backend import create_world, normalize_backend


def run_collective(
    size: int,
    program: Callable[..., Any],
    *args: Any,
    cluster=None,
    backend: Optional[str] = None,
    timeout: Optional[float] = None,
    **kwargs: Any,
) -> Tuple[List[Any], Any]:
    """Run ``program(comm, *args, **kwargs)`` on ``size`` ranks.

    Parameters
    ----------
    cluster:
        The :class:`~repro.storage.local_store.Cluster` the program writes
        to (pass the same object that appears in ``args``).  Required for
        the process backend to merge rank-side writes back; ignored by the
        thread backend, where ranks share it directly.
    backend, timeout:
        Forwarded to :func:`repro.simmpi.backend.create_world` (thread
        default; ``REPRO_SPMD_BACKEND``/``REPRO_SPMD_TIMEOUT`` aware).

    Returns
    -------
    ``(results, world)`` — rank-ordered results and the world that ran them
    (for trace inspection via ``world.comms``).
    """
    name = normalize_backend(backend)
    world = create_world(size, backend=name, timeout=timeout)
    if name == "thread" or cluster is None:
        return world.run(program, *args, **kwargs), world

    from repro.storage.delta_codec import decode_cluster_delta, layout_cluster_delta

    def deltified(comm, *p_args, **p_kwargs):
        # Fork semantics: `cluster` here is this rank's copy — the same
        # object the program sees through p_args, so collect sees its writes.
        cluster.mark()
        result = program(comm, *p_args, **p_kwargs)
        laid = layout_cluster_delta(cluster.collect_delta())
        return result, comm.world.stage_result(comm.rank, laid.nbytes, laid.write_into)

    results: List[Any] = []
    try:
        pairs = world.run(deltified, *args, **kwargs)
        with contextlib.ExitStack() as opened:
            # Map every rank's segment before decoding any: a mapped segment
            # has no name left, so nothing that happens to this process
            # during the decodes can strand one in /dev/shm.
            buffers = [
                opened.enter_context(world.open_result_blob(handle))
                for _result, handle in pairs
            ]
            for rank, ((result, _handle), buf) in enumerate(zip(pairs, buffers)):
                try:
                    delta = decode_cluster_delta(buf)
                except FrameError as exc:
                    raise FrameError(f"{exc} (rank {rank}'s cluster delta)") from None
                cluster.apply_delta(delta)
                results.append(result)
    finally:
        # Failed or partially consumed runs must not leak staged segments.
        world.sweep_result_blobs()
    return results, world
