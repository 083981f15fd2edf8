"""repro.chain: incremental checkpoint chains.

First-class chains of full + delta dumps with time-travel restore to any
epoch, refcounted GC and compaction into synthetic fulls.  See
:class:`~repro.chain.manager.ChainManager` for the full story.
"""

from repro.chain.errors import ChainBrokenError, ChainError, ChainStateError
from repro.chain.manager import (
    ChainCompactResult,
    ChainDumpResult,
    ChainGCResult,
    ChainManager,
)
from repro.chain.node import CHAIN_KINDS, ChainNode, chunk_slices

__all__ = [
    "CHAIN_KINDS",
    "ChainBrokenError",
    "ChainCompactResult",
    "ChainDumpResult",
    "ChainError",
    "ChainGCResult",
    "ChainManager",
    "ChainNode",
    "ChainStateError",
    "chunk_slices",
]
