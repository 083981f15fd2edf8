"""RCH1: the persistent manifest-chain format.

Serializes a whole incremental checkpoint chain — every
:class:`~repro.chain.node.ChainNode`, live and retired, plus the manager's
epoch/dump-id counters — to one :mod:`repro.core.frame`.  The chain-wide
values are the frame's scalars; the nodes are flattened into columns: one
row per node, one row of counts per (node, rank), then the segment
lengths, delta positions and digests of all of them back to back.  One
digest column means one fingerprint width per chain, which is what one
``DumpConfig`` writes.

A rank with no dirty chunks has counts of zero and round-trips to empty
lists.
"""

from __future__ import annotations

from itertools import chain

from repro.core import frame
from repro.core.frame import DIGEST, FrameError, Schema

_MAGIC = b"RCH1"
_SCHEMA = Schema(
    scalars=("n_ranks", "chunk_size", "next_epoch", "next_dump_id"),
    columns=(
        ("nodes", "i8"),  # epoch, kind, retired, parent_epoch (-1 none), dump_id
        ("counts", "u8"),  # per (node, rank): segments, positions, fps
        ("segment_lengths", "u8"),
        ("positions", "u8"),
        ("fps", DIGEST),
    ),
)
_KINDS = ("full", "delta")

#: Raised for malformed chain blobs and chains the format cannot carry.
ChainCodecError = FrameError


def encode_chain(
    nodes,
    n_ranks: int,
    chunk_size: int,
    next_epoch: int,
    next_dump_id: int,
) -> bytes:
    """Serialize ``nodes`` (iterable of ChainNode, any order) to one blob."""
    ordered = sorted(nodes, key=lambda node: node.epoch)
    for node in ordered:
        widths = {len(node.segment_lengths), len(node.positions), len(node.fps)}
        if widths != {n_ranks}:
            raise ChainCodecError(
                f"RCH1: epoch {node.epoch} has columns for {sorted(widths)} ranks, "
                f"chain header says {n_ranks}"
            )
    lengths = [ls for node in ordered for ls in node.segment_lengths]
    positions = [ps for node in ordered for ps in node.positions]
    fps = [fs for node in ordered for fs in node.fps]
    return frame.encode(
        _MAGIC,
        _SCHEMA,
        (n_ranks, chunk_size, next_epoch, next_dump_id),
        (
            [
                (node.epoch, _KINDS.index(node.kind), bool(node.retired),
                 -1 if node.parent_epoch is None else node.parent_epoch, node.dump_id)
                for node in ordered
            ],
            [tuple(map(len, counts)) for counts in zip(lengths, positions, fps)],
            list(chain.from_iterable(lengths)),
            list(chain.from_iterable(positions)),
            list(chain.from_iterable(fps)),
        ),
    )


def decode_chain(blob: bytes):
    """Decode an RCH1 blob.

    Returns ``(nodes, n_ranks, chunk_size, next_epoch, next_dump_id)``
    with ``nodes`` a list of :class:`~repro.chain.node.ChainNode` in epoch
    order.
    """
    from repro.chain.node import ChainNode

    (n_ranks, chunk_size, next_epoch, next_dump_id), columns = frame.decode(
        _MAGIC, blob, _SCHEMA
    )
    node_rows, counts, lengths, positions, fps = (c.tolist() for c in columns)
    n_nodes = len(node_rows) // 5
    if len(node_rows) % 5 or n_ranks < 0 or len(counts) != 3 * n_nodes * n_ranks:
        raise ChainCodecError(
            f"RCH1: {len(node_rows)} node values and {len(counts)} counts "
            f"do not describe whole nodes of {n_ranks} ranks"
        )
    if [sum(counts[i::3]) for i in range(3)] != [*map(len, (lengths, positions, fps))]:
        raise ChainCodecError("RCH1: per-rank counts do not add up to the columns")
    nodes = []
    s = p = f = 0
    per_rank = zip(counts[0::3], counts[1::3], counts[2::3])
    for i in range(n_nodes):
        epoch, kind, retired, parent, dump_id = node_rows[5 * i : 5 * i + 5]
        if kind not in (0, 1):
            raise ChainCodecError(f"RCH1: epoch {epoch} has unknown node kind {kind}")
        node_lengths, node_positions, node_fps = [], [], []
        for _rank, (n_s, n_p, n_f) in zip(range(n_ranks), per_rank):
            node_lengths.append(lengths[s : s + n_s])
            node_positions.append(positions[p : p + n_p])
            node_fps.append(fps[f : f + n_f])
            s, p, f = s + n_s, p + n_p, f + n_f
        try:
            nodes.append(ChainNode(
                epoch=epoch,
                kind=_KINDS[kind],
                dump_id=dump_id,
                parent_epoch=None if parent < 0 else parent,
                retired=bool(retired),
                segment_lengths=node_lengths,
                positions=node_positions,
                fps=node_fps,
            ))
        except ValueError as exc:  # a full with a parent, a delta without
            raise ChainCodecError(f"RCH1: epoch {epoch}: {exc}") from None
    return nodes, n_ranks, chunk_size, next_epoch, next_dump_id
