"""Dataset manifests: the recipe for reassembling a dumped dataset.

A manifest records, for one rank's dataset, the segment structure and the
ordered fingerprint list (duplicates included).  Chunk payloads live in the
content-addressed stores; the manifest is what turns them back into the
original buffer.  Manifests are tiny compared to the data, so every dump
replicates the manifest to all partners unconditionally — losing the
manifest would otherwise make the rank's replicas unusable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core import frame
from repro.core.fingerprint import Fingerprint
from repro.core.frame import DIGEST, Schema

_MAGIC = b"RMF1"
#: ``rank`` and ``dump_id`` lead the scalar block so :meth:`Manifest.key_of_blob`
#: reads them from the header alone.
_SCHEMA = Schema(
    scalars=("rank", "dump_id", "chunk_size", "compressed", "delta"),
    columns=(("segment_lengths", "u8"), ("fingerprints", DIGEST)),
)


@dataclass
class Manifest:
    """Reassembly recipe for one rank's dataset in one dump."""

    rank: int
    dump_id: int
    segment_lengths: List[int] = field(default_factory=list)
    fingerprints: List[Fingerprint] = field(default_factory=list)
    chunk_size: int = 4096
    #: chunks are stored as self-describing compressed frames (decode with
    #: :func:`repro.compress.codecs.decode_auto` on restore)
    compressed: bool = False
    #: chain-delta dump (see :mod:`repro.chain`): the manifest holds only
    #: the epoch's dirty chunks and references parent-chain chunks by
    #: digest; :func:`repro.core.restore.restore_dataset` refuses to
    #: restore it directly (raises ``ChainBrokenError``) — resolve through
    #: :class:`repro.chain.ChainManager` instead
    delta: bool = False

    @property
    def total_bytes(self) -> int:
        return sum(self.segment_lengths)

    @property
    def total_chunks(self) -> int:
        return len(self.fingerprints)

    def key(self) -> tuple:
        """Store key identifying this manifest."""
        return (self.rank, self.dump_id)

    # -- serialization ----------------------------------------------------------
    def to_bytes(self) -> bytes:
        return frame.encode(
            _MAGIC,
            _SCHEMA,
            (self.rank, self.dump_id, self.chunk_size, self.compressed, self.delta),
            (self.segment_lengths, self.fingerprints),
        )

    @classmethod
    def key_of_blob(cls, data: bytes) -> tuple:
        """Store key of a serialized manifest, read from the header alone.

        Lets the dump's replication path store incoming manifest blobs
        verbatim without deserialising (and re-serialising) the whole
        fingerprint list.
        """
        return frame.peek_scalars(_MAGIC, data, _SCHEMA)[:2]

    @classmethod
    def fingerprint_column(cls, data: bytes):
        """The fingerprint column of a serialized manifest as
        :func:`~repro.core.frame.decode` cuts it: a read-only void view of
        ``data``, one row per chunk (an empty manifest's rows are 1 byte
        wide), without building the ``bytes`` list :meth:`from_bytes` does."""
        return frame.decode(_MAGIC, data, _SCHEMA)[1][1]

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        scalars, (segment_lengths, fingerprints) = frame.decode(_MAGIC, data, _SCHEMA)
        rank, dump_id, chunk_size, compressed, delta = scalars
        return cls(
            rank=rank,
            dump_id=dump_id,
            segment_lengths=segment_lengths.tolist(),
            fingerprints=fingerprints.tolist(),
            chunk_size=chunk_size,
            compressed=bool(compressed),
            delta=bool(delta),
        )
