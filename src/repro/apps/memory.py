"""Memory capture: the transparent-checkpointing stand-in.

AC-FTE intercepts jemalloc to capture every allocated page.  Here each
rank *registers* its long-lived buffers (numpy arrays, bytearrays) with a
:class:`MemoryRegistry`, which is a
:class:`~repro.apps.base.SegmentedWorkload`: a checkpoint is
``service.submit(tenant, registry, kind="delta")`` and a drain, one segment
per region (page-aligned by construction since each region is chunked
independently).  :meth:`MemoryRegistry.restore` writes a restored dataset
back *in place* — the application's arrays keep their identity across a
restart, exactly like pages being repopulated at their old addresses.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import Segment, SegmentedWorkload
from repro.core.chunking import BufferLike, Dataset, as_bytes_view


class MemoryRegistry(SegmentedWorkload):
    """Per-rank ordered registries of checkpointable memory regions."""

    name = "memory"

    def __init__(self) -> None:
        self._regions: Dict[int, Dict[str, BufferLike]] = {}

    def register(self, rank: int, name: str, region: BufferLike) -> None:
        """Register a buffer :meth:`restore` can write back in place: a
        writable, C-contiguous ndarray, bytearray or memoryview.

        Registration order defines the segment order of every checkpoint
        of ``rank``, and a restart must find the same regions in the same
        order.
        """
        regions = self._regions.setdefault(rank, {})
        if name in regions:
            raise ValueError(f"region {name!r} already registered on rank {rank}")
        try:
            view = memoryview(region)
        except TypeError:
            raise TypeError(f"region {name!r} is not a buffer") from None
        if view.readonly:
            raise TypeError(f"region {name!r} is read-only and cannot be restored")
        if not view.c_contiguous:
            # as_bytes_view would checkpoint a copy and restore into it.
            raise TypeError(
                f"region {name!r} is not C-contiguous and cannot be restored "
                "in place"
            )
        regions[name] = region

    def unregister(self, rank: int, name: str) -> None:
        try:
            del self._regions.get(rank, {})[name]
        except KeyError:
            raise KeyError(f"region {name!r} not registered on rank {rank}") from None

    def names(self, rank: int) -> List[str]:
        return list(self._regions.get(rank, {}))

    def rank_segments(self, rank: int, n_ranks: int) -> List[Segment]:
        """The rank's regions as they are now (zero-copy: the dump reads
        them synchronously, mirroring AC-FTE's stop-and-dump mode)."""
        return [(None, region) for region in self._regions.get(rank, {}).values()]

    def restore(self, rank: int, dataset: Dataset) -> None:
        """Write a restored dataset back into ``rank``'s registered regions."""
        regions = self._regions.get(rank, {})
        if dataset.num_segments != len(regions):
            raise ValueError(
                f"restore mismatch: {dataset.num_segments} segments for "
                f"{len(regions)} regions registered on rank {rank}"
            )
        for i, (name, region) in enumerate(regions.items()):
            target = as_bytes_view(region)
            source = dataset.segment(i)
            if len(target) != len(source):
                raise ValueError(
                    f"region {name!r}: size changed "
                    f"({len(source)}B checkpointed, {len(target)}B now)"
                )
            target[:] = source
