"""Erasure coding: the paper's named future-work direction (Section VI).

"One interesting direction is to combine our approach with other redundancy
mechanisms, in particular erasure codes, which would act as a replacement
for replication."  This package provides that combination:

* :mod:`~repro.erasure.gf256` — GF(2^8) arithmetic (log/antilog tables).
* :mod:`~repro.erasure.reed_solomon` — systematic RS(n, k): any k of the n
  shards reconstruct the data.
* :mod:`~repro.erasure.ec_dump` — the parity dump
  (``DumpConfig(redundancy="parity")``): chunks that are naturally
  duplicated keep counting as replicas, while rare chunks are striped
  across ranks with parity instead of being copied K-D more times, and a
  restore or repair decodes them from their stripe.
"""

from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.erasure.ec_dump import ParityRecord, find_stripe, reconstruct_chunk

__all__ = [
    "GF256",
    "ParityRecord",
    "ReedSolomon",
    "find_stripe",
    "reconstruct_chunk",
]
