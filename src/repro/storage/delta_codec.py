"""RCD1: the :class:`~repro.storage.local_store.ClusterDelta` as one frame.

The process backend's merge-back protocol ships every forked rank's cluster
delta to the parent through a shared-memory segment the rank writes the
frame into (:meth:`repro.simmpi.procworld.ProcessWorld.stage_result`).  The
delta is flattened into the columns of one :mod:`repro.core.frame`: a row of
counts per node, then the chunk entries and manifests of all nodes back to
back, and one nested RPR1 frame per parity record.  Nothing on this wire is
pickled, so nothing on it can run code.  Chunk payloads are decoded as views
of the frame (``RAGGED_VIEW``), so the parent's stores keep the segment
instead of a copy of it; manifests and parity frames are small and are cut
as ``bytes``, so that a 50 KB manifest never pins a 24 MiB mapping.

Replay semantics are exactly those of ``ClusterDelta``/``apply_delta``:
entry order, payload-``None`` markers (fingerprints the marking side
already held) and node ordering are all preserved.  Chunk fingerprints
share one digest column, so a delta of mixed widths is rejected at encode;
every store write inside one collective comes from one ``Fingerprinter``.
"""

from __future__ import annotations

from typing import Dict

from repro.core import frame
from repro.core.frame import DIGEST, RAGGED, RAGGED_VIEW, FrameError, Schema
from repro.storage.local_store import ClusterDelta, NodeDelta, StoreDelta

DELTA_MAGIC = b"RCD1"
_SCHEMA = Schema(
    scalars=(),
    columns=(
        ("nodes", "i8"),  # node_id, alive (-1 unchanged), entries, manifests, parity
        ("entry_fps", DIGEST),
        ("entry_counts", "i8"),
        ("entry_has_payload", "u1"),
        ("entry_payloads", RAGGED_VIEW),
        ("manifest_keys", "i8"),  # rank, dump_id
        ("manifest_blobs", RAGGED),
        ("parity", RAGGED),  # one RPR1 frame per record
    ),
)

_PARITY_MAGIC = b"RPR1"
_PARITY_SCHEMA = Schema(
    scalars=("dump_id", "stripe_index", "stripe_data", "stripe_parity", "shard_index"),
    columns=(
        ("group_members", "i8"),
        ("fingerprints", RAGGED),  # NO_CHUNK travels as b""
        ("chunk_sizes", "i8"),
        ("shard", RAGGED),
    ),
)


def _encode_parity(r) -> bytes:
    return frame.encode(
        _PARITY_MAGIC,
        _PARITY_SCHEMA,
        (r.dump_id, r.stripe_index, r.stripe_data, r.stripe_parity, r.shard_index),
        (r.group_members, r.fingerprints, r.chunk_sizes, (r.shard,)),
    )


def _decode_parity(blob: bytes):
    from repro.erasure.ec_dump import ParityRecord

    scalars, (members, fps, sizes, shard) = frame.decode(
        _PARITY_MAGIC, blob, _PARITY_SCHEMA
    )
    if len(fps) != len(sizes) or len(shard) != 1:
        raise FrameError(
            f"RPR1: {len(fps)} fingerprints, {len(sizes)} sizes, {len(shard)} shards"
        )
    dump_id, stripe_index, stripe_data, stripe_parity, shard_index = scalars
    return ParityRecord(
        dump_id, stripe_index, tuple(members.tolist()), tuple(fps),
        tuple(sizes.tolist()), stripe_data, stripe_parity, shard_index, shard[0],
    )


def layout_cluster_delta(delta: ClusterDelta) -> frame.Layout:
    """Lay a delta out as one RCD1 frame (see the module docstring); the
    caller picks the sink."""
    nodes = delta.nodes.values()
    entries = [entry for node in nodes for entry in node.chunks.entries]
    fps, payloads, counts = zip(*entries) if entries else ((), (), ())
    manifests = [item for node in nodes for item in node.manifests.items()]
    return frame.layout(
        DELTA_MAGIC,
        _SCHEMA,
        (),
        (
            [
                (node_id, -1 if node.alive is None else bool(node.alive),
                 len(node.chunks.entries), len(node.manifests), len(node.parity))
                for node_id, node in delta.nodes.items()
            ],
            fps,
            counts,
            [payload is not None for payload in payloads],
            [payload or b"" for payload in payloads],
            [key for key, _blob in manifests],
            [blob for _key, blob in manifests],
            [_encode_parity(record) for node in nodes for record in node.parity],
        ),
    )


def encode_cluster_delta(delta: ClusterDelta) -> bytes:
    """A delta as one RCD1 ``bytes`` blob."""
    return layout_cluster_delta(delta).to_bytes()


def decode_cluster_delta(buf) -> ClusterDelta:
    """Rebuild a :class:`ClusterDelta` from :func:`encode_cluster_delta`
    output; anything malformed raises :class:`~repro.core.frame.FrameError`.

    ``buf`` may be ``bytes`` or a ``memoryview`` of a mapped segment.
    Nothing but the chunk payloads still views ``buf``, and they are only
    handed out after the whole frame validated: they are read-only slices of
    it and keep it alive (mapped) for as long as any one of them is.
    """
    _scalars, columns = frame.decode(DELTA_MAGIC, buf, _SCHEMA)
    nodes, fps, counts, has_payload, payloads, keys, blobs, parity = columns
    if not len(fps) == len(counts) == len(has_payload) == len(payloads):
        raise FrameError("RCD1: chunk entry columns differ in length")
    if len(nodes) % 5 or len(keys) != 2 * len(blobs):
        raise FrameError("RCD1: node or manifest key column is not whole rows")
    entries = list(
        zip(
            fps.tolist(),
            [p if has else None for p, has in zip(payloads, has_payload.tolist())],
            counts.tolist(),
        )
    )
    manifests = list(zip(map(tuple, keys.reshape(-1, 2).tolist()), blobs))
    records = [_decode_parity(blob) for blob in parity]
    out: Dict[int, NodeDelta] = {}
    e = m = p = 0
    for node_id, alive, n_e, n_m, n_p in nodes.reshape(-1, 5).tolist():
        if min(n_e, n_m, n_p) < 0 or alive not in (-1, 0, 1):
            raise FrameError(f"RCD1: node {node_id} row {(alive, n_e, n_m, n_p)}")
        out[node_id] = NodeDelta(
            chunks=StoreDelta(entries[e : e + n_e]),
            manifests=dict(manifests[m : m + n_m]),
            parity=records[p : p + n_p],
            alive=None if alive < 0 else bool(alive),
        )
        e, m, p = e + n_e, m + n_m, p + n_p
    if (e, m, p) != (len(entries), len(manifests), len(records)):
        raise FrameError("RCD1: node rows do not add up to the entry columns")
    return ClusterDelta(out)
