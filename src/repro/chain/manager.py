"""Incremental checkpoint chains: delta dumps, time-travel restore,
refcounted GC and compaction.

A :class:`ChainManager` sits on top of the existing collective dump /
batched restore / content-addressed store stack and records every dump as
a chain node keyed by *epoch*:

* a **full** dump stores a complete dataset per rank (the ordinary
  collective dump); its ranks hash it, and the manager reads its columns
  back from the manifests they write;
* a **delta** dump fingerprints only the chunks the application touched
  (the manager's per-rank :class:`~repro.core.fpcache.FingerprintCache`
  fed by the workload's ``dirty_regions``), diffs against the parent
  epoch's resolved chunk set over whatever geometry each has, and
  collectively dumps *only the changed chunks the parent does not already
  hold*, handing each rank its column of their fingerprints so nothing is
  hashed twice — everything else is referenced up the parent chain by
  digest.  The diff is positional on the fixed chunk grid, so under
  content-defined chunking a requested delta is promoted to a full.

Restore-to-any-epoch resolves the newest-wins chunk set by walking the
chain from its base full through each delta, materialises a synthetic full
manifest and feeds it through the batched
:func:`~repro.core.restore.restore_from_manifest` hot path.  Refcount GC
(the manager's one owner holds one reference per live epoch per distinct
resolved chunk, tracked in a :class:`~repro.svc.index.GlobalDedupIndex`)
retires pruned epochs —
replacing their cluster manifests with *pinned* subsets so inherited
chunks stay referenced and repair-protected — and physically discards
chunks whose last reference died.  Compaction rewrites a deep chain node
into a synthetic full in place.

Every mutation happens *parent-side* (the driving process), so thread and
process SPMD backends produce byte-identical chains, clusters and
restores — the property the dst chain dimension's differential runs pin.
"""

from __future__ import annotations

import os
import zlib
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from itertools import compress
from operator import ne
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.errors import ChainBrokenError, ChainStateError
from repro.chain.node import ChainNode, chunk_count, chunk_slices
from repro.core.chunking import Dataset
from repro.core.config import DumpConfig
from repro.core.dump import chunk_boundaries
from repro.core.fingerprint import Fingerprinter
from repro.core.fpcache import FingerprintCache
from repro.core.local_dedup import local_dedup_batched
from repro.core.restore import RestoreReport, restore_from_manifest
from repro.core.runner import run_collective
from repro.storage.chain_codec import ChainCodecError, decode_chain, encode_chain
from repro.storage.local_store import Cluster, StorageError
from repro.storage.manifest import Manifest
from repro.svc.index import GlobalDedupIndex


@dataclass
class ChainDumpResult:
    """Outcome of one chain dump (one new epoch)."""

    epoch: int
    kind: str  # the kind actually dumped ("delta" may promote to "full")
    dump_id: int
    #: a requested delta was promoted to a full (no live parent, or
    #: content-defined chunking, which the fixed-grid diff cannot follow)
    promoted: bool
    #: column entries this epoch rewrote, summed over ranks (fulls: every
    #: chunk); what it shipped is ``sum(r.n_chunks for r in reports)``
    changed_chunks: int
    #: total logical chunks of the epoch's datasets, summed over ranks
    total_chunks: int
    #: distinct chunks this epoch added to the store (first reference)
    new_unique_chunks: int
    #: stored bytes of those first-reference chunks (quota accounting)
    new_unique_bytes: int
    #: chunks another owner had stored that this owner now references too
    cross_owner_hits: int = 0
    #: per-rank :class:`~repro.core.dump.DumpReport` list
    reports: list = field(default_factory=list)
    #: the collective's per-rank :class:`~repro.simmpi.trace.Trace` list
    traces: list = field(default_factory=list)

    @property
    def delta_fraction(self) -> float:
        """Fraction of the epoch's chunks actually re-dumped."""
        if not self.total_chunks:
            return 1.0
        return self.changed_chunks / self.total_chunks


@dataclass
class ChainGCResult:
    """Outcome of pruning one epoch."""

    epoch: int
    #: replica copies physically discarded (last reference died)
    chunks_dropped: int
    bytes_freed: int
    #: the epoch still anchors live descendants: its record was retired and
    #: its cluster manifests replaced with pinned (still-referenced) subsets
    pinned: bool
    #: retired epochs whose records/manifests were swept entirely
    swept_epochs: Tuple[int, ...] = ()
    #: distinct chunks whose last reference died
    distinct_dropped: int = 0
    #: distinct chunks some live epoch (of any owner) still references,
    #: and those of them that another owner references
    chunks_retained: int = 0
    retained_by_others: int = 0
    #: manifest replicas removed with the swept epochs
    manifests_dropped: int = 0


@dataclass
class ChainCompactResult:
    """Outcome of compacting one epoch into a synthetic full."""

    epoch: int
    old_dump_id: int
    new_dump_id: int
    #: False when the epoch was already a parentless full (no-op)
    compacted: bool
    swept_epochs: Tuple[int, ...] = ()


class ChainManager:
    """First-class incremental checkpoint chains over one cluster.

    Parameters
    ----------
    cluster:
        The cluster every chain dump writes into.
    config:
        Base :class:`~repro.core.config.DumpConfig` (assignable between
        dumps); the manager sets ``chain_delta`` itself per dump kind.
    n_ranks:
        World size of the chain's collectives.
    backend:
        SPMD backend for the dump collectives (thread default).
    index:
        Refcount index; pass a private one (default) or a shared service
        index with a distinctive ``owner``.
    owner:
        The one name every reference of this chain is held under:
        ``refs[owner]`` of a chunk is the number of the chain's live epochs
        that resolve to it (the service passes the tenant's name).
    trace:
        Optional :class:`~repro.simmpi.trace.Trace` for ``chain-*`` spans
        and the ``chain_depth`` gauge.
    timeout:
        World timeout of the dump collectives (assignable between dumps).
    """

    def __init__(
        self,
        cluster: Cluster,
        config: DumpConfig,
        n_ranks: int,
        backend: Optional[str] = None,
        index: Optional[GlobalDedupIndex] = None,
        owner: str = "chain",
        trace=None,
        timeout: Optional[float] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.n = n_ranks
        self.backend = backend
        self.index = index if index is not None else GlobalDedupIndex()
        self.owner = owner
        self.trace = trace
        self.timeout = timeout
        self.nodes: Dict[int, ChainNode] = {}
        self.next_epoch = 0
        self._next_dump_id = 0
        #: parent-side per-rank fingerprint caches (survive both backends)
        self._caches: Dict[int, FingerprintCache] = {}
        #: ``(epoch, depth, every rank's resolved_fps)`` the next delta diffs against:
        #: written by :meth:`_carry`, dropped by all but a dump, never read by the walk
        self._tip: Optional[Tuple[int, int, List[List[bytes]]]] = None

    # -- structure queries ------------------------------------------------------
    def live_epochs(self) -> List[int]:
        """Restorable (non-retired) epochs, ascending."""
        return sorted(e for e, node in self.nodes.items() if not node.retired)

    def tip(self) -> Optional[ChainNode]:
        """The newest live epoch (the parent of the next delta)."""
        live = self.live_epochs()
        return self.nodes[live[-1]] if live else None

    def node_of(self, epoch: int) -> ChainNode:
        node = self.nodes.get(epoch)
        if node is None:
            raise ChainStateError(f"unknown chain epoch {epoch}")
        return node

    def path_of(self, epoch: int) -> List[ChainNode]:
        """Base-full-first ancestor path of ``epoch`` (inclusive)."""
        path: List[ChainNode] = []
        seen: Set[int] = set()
        e: Optional[int] = epoch
        while e is not None:
            if e in seen:
                raise ChainStateError(f"chain cycle through epoch {e}")
            seen.add(e)
            node = self.node_of(e)
            path.append(node)
            e = node.parent_epoch
        path.reverse()
        if path[0].kind != "full":
            raise ChainStateError(
                f"epoch {epoch}'s chain does not terminate at a full dump"
            )
        return path

    def depth_of(self, epoch: int) -> int:
        """Chain depth of ``epoch`` (1 for a base full)."""
        return len(self.path_of(epoch))

    def resolved_fps(self, epoch: int, rank: int) -> List[bytes]:
        """The newest-wins chunk fingerprints of ``(epoch, rank)`` in
        dataset chunk order — the base full's column with every delta on
        the path applied oldest to newest."""
        path = self.path_of(epoch)
        fps = list(path[0].fps[rank])
        for node in path[1:]:
            self._step(fps, node, rank)
        return fps

    def resolved_distinct(self, epoch: int) -> Set[bytes]:
        """Distinct fingerprints of the epoch across all ranks — the chunk
        set whose references the epoch holds in the GC index."""
        out: Set[bytes] = set()
        for rank in range(self.n):
            out.update(self.resolved_fps(epoch, rank))
        return out

    # -- internals --------------------------------------------------------------
    def _alloc_dump_id(self, dump_id: Optional[int] = None) -> int:
        """The next dump id, or ``dump_id`` when the caller owns the id
        space (the service's global ids); never handed out twice."""
        did = self._next_dump_id if dump_id is None else dump_id
        self._next_dump_id = max(self._next_dump_id, did + 1)
        return did

    def _span(self, name, **attrs):
        if self.trace is not None:
            return self.trace.span(name, **attrs)
        return nullcontext()

    def _gauge(self, name: str, value: float) -> None:
        if self.trace is not None and self.trace.span_enabled:
            self.trace.metrics.gauge(name).set(value)

    def _step(self, column: List[bytes], node: ChainNode, rank: int) -> None:
        """Step the parent's resolved ``column`` of ``rank`` onto delta
        ``node``: cut or pad it to the delta's own chunk count, then write
        the delta's chunks over it (every padded slot is one of them)."""
        count = chunk_count(node.segment_lengths[rank], self.config.chunk_size)
        del column[count:]
        column.extend([b""] * (count - len(column)))
        for pos, fp in zip(node.positions[rank], node.fps[rank]):
            column[pos] = fp

    def _carry(self, node: ChainNode) -> Tuple[int, List[List[bytes]]]:
        """Move the carried tip onto ``node`` and return its depth and
        columns: a full's own, the carried parent's with the delta's chunks
        written over them (O(dirty)), else the from-scratch walk."""
        epoch, depth, columns = self._tip or (None, 0, [])
        if epoch != node.epoch:
            self._tip = None  # half-written columns must not stay keyed
            if node.kind == "full":
                depth, columns = 1, [list(column) for column in node.fps]
            elif epoch == node.parent_epoch:
                depth += 1
                for rank, column in enumerate(columns):
                    self._step(column, node, rank)
            else:
                depth = self.depth_of(node.epoch)
                columns = [self.resolved_fps(node.epoch, r) for r in range(self.n)]
            self._tip = (node.epoch, depth, columns)
        return depth, columns

    def _held(
        self, columns: List[List[bytes]], parent: List[List[bytes]]
    ) -> Set[bytes]:
        """The fingerprints of ``columns`` a delta need not ship: its parent
        resolves to them, so a manifest on the delta's own path lists them,
        and a live node stores them.  (Another live epoch's reference is not
        enough: compaction can cut that epoch off this path and a prune then
        sweeps its manifests, leaving a chunk no manifest names for repair.)"""
        candidates = list(set().union(*columns) & set().union(*parent))
        replicas = self.cluster.holder_column(candidates).replicas()
        return set(compress(candidates, replicas > 0))

    def _record(self, node: ChainNode):
        """Commit ``node``'s references: one per distinct resolved chunk."""
        depth, columns = self._carry(node)
        self._gauge("chain_depth", float(depth))
        return self.index.record_many(
            self.owner, set().union(*columns),
            self.cluster.stored_sizes,
        )

    def _live_needed_epochs(self) -> Set[int]:
        """Epochs on the ancestor path of any live epoch."""
        needed: Set[int] = set()
        for e in self.live_epochs():
            for node in self.path_of(e):
                needed.add(node.epoch)
        return needed

    def _drop_manifests(self, dump_id: int) -> int:
        """Remove the dump's manifests from every node, dead ones included;
        returns how many replicas went."""
        return sum(
            bool(node.drop_manifest(rank, dump_id))
            for node in self.cluster.nodes
            for rank in range(self.n)
        )

    def _sweep(self) -> Tuple[Tuple[int, ...], int]:
        """Drop retired epochs no live epoch depends on (cascading);
        returns them and the number of manifest replicas dropped."""
        swept: List[int] = []
        manifests = 0
        while True:
            needed = self._live_needed_epochs()
            stale = [
                e for e, node in self.nodes.items()
                if node.retired and e not in needed
            ]
            if not stale:
                return tuple(sorted(swept)), manifests
            for e in stale:
                manifests += self._drop_manifests(self.nodes[e].dump_id)
                del self.nodes[e]
                swept.append(e)

    def _written_column(
        self, rank: int, dump_id: int, dataset: Dataset, lossy: bool
    ) -> List[bytes]:
        """The fingerprint column ``rank`` itself wrote under ``dump_id``,
        read from whichever node holds a replica of its manifest.  Dead
        nodes are asked too: a replica stranded on a crashed node pins its
        chunks all the same.  A ``lossy`` dump — its reports show a dead
        node in the liveness snapshot or dropped commits — may lose one rank
        outright (its node was dead, its one replica went to a partner, the
        partner died mid-dump) while the other ranks' chunks are stored: the
        epoch then commits with the column that rank would have written,
        hashed here as its dump chunked it, and what nobody stores restores
        as a typed loss.  Otherwise a missing manifest is a bug."""
        for node in self.cluster.nodes:
            if node.has_manifest(rank, dump_id):
                return node.get_manifest(rank, dump_id).fingerprints
        if not lossy:
            raise ChainStateError(
                f"rank {rank} left no manifest of dump {dump_id} on any node"
            )
        return local_dedup_batched(
            dataset, Fingerprinter(self.config.effective_hash_name),
            self.config.chunk_size,
            boundaries=chunk_boundaries(dataset, self.config),
        ).order

    # -- dumps ------------------------------------------------------------------
    def chain_dump(
        self,
        workload,
        kind: str = "delta",
        phase_hook=None,
        dump_id: Optional[int] = None,
    ) -> ChainDumpResult:
        """Dump the workload's current state as the next chain epoch.

        ``kind="delta"`` diffs against the tip epoch, whatever geometry
        either has, and dumps only the changed chunks the tip does not
        already hold (it resolves to them and a live node stores them),
        whose fingerprints the ranks are handed instead of hashing them
        again.  It silently promotes to a full when there is no live parent
        or the chunking is content-defined (the ranks cut by content, the
        diff is positional on the fixed grid).  Dirty-region hints from the
        workload keep the parent-side fingerprinting incremental; a missing
        hook only costs hashing time, never correctness.
        """
        if kind not in ("full", "delta"):
            raise ChainStateError(
                f"chain dump kind must be 'full' or 'delta', got {kind!r}"
            )
        if kind == "delta" and self.config.redundancy != "replication":
            raise ChainStateError(
                "delta epochs require replication redundancy "
                "(parity stripes are per-dump and cannot span a chain)"
            )
        epoch = self.next_epoch
        parent = self.tip()
        datasets = [
            workload.build_dataset(rank, self.n) for rank in range(self.n)
        ]
        lengths = [list(ds.segment_lengths) for ds in datasets]
        promoted = kind == "delta" and (
            parent is None or self.config.chunking == "cdc"
        )
        if promoted:
            kind = "full"

        if kind == "delta":
            cs, hash_name = self.config.chunk_size, self.config.effective_hash_name
            fingerprinter = Fingerprinter(hash_name)
            fps_new: List[List[bytes]] = []
            for rank in range(self.n):
                fpc = self._caches.get(rank)
                if fpc is None:
                    fpc = self._caches[rank] = FingerprintCache(cs, hash_name)
                fps_new.append(fpc.fingerprint_dataset(
                    datasets[rank], fingerprinter,
                    workload.dirty_regions(rank, self.n),
                ))
            positions: List[List[int]] = []
            node_fps: List[List[bytes]] = []
            old_columns = self._carry(parent)[1]
            for new, old in zip(fps_new, old_columns):
                # Whole columns, at C speed, not only what this epoch declared
                # dirty: the cache may have re-hashed more since the parent.
                pos = list(compress(range(len(new)), map(ne, new, old)))
                pos.extend(range(len(old), len(new)))
                positions.append(pos)
                node_fps.append([new[i] for i in pos])
            held = self._held(node_fps, old_columns)
            dump_datasets: List[Dataset] = []
            # One segment per shipped chunk: the delta's fixed-grid column is
            # what was diffed, so the ranks are handed it instead of hashing.
            rank_fps: List[Optional[List[bytes]]] = []
            for dataset, seg_lengths, pos, fps in zip(
                datasets, lengths, positions, node_fps
            ):
                ship = [fp not in held for fp in fps]
                rank_fps.append(list(compress(fps, ship)))
                dump_datasets.append(Dataset([
                    dataset.segment(seg_idx)[start:start + length]
                    for seg_idx, start, length
                    in chunk_slices(seg_lengths, cs, compress(pos, ship))
                ]))
            total = sum(map(len, fps_new))
            parent_epoch: Optional[int] = parent.epoch
        else:
            # A full is hashed once, by its ranks: its columns are read back
            # from the manifests they write.  The caches go now and not on
            # success: if this dump raises, the workload's next dirty_regions
            # still describe changes since *it*, which a cache left at the
            # epoch before would miss.  The next delta hashes from cold.
            self._caches.clear()
            positions = [[] for _ in range(self.n)]
            dump_datasets = datasets
            parent_epoch = None
            rank_fps = [None] * self.n
        dump_config = self.config.with_(chain_delta=kind == "delta")

        did = self._alloc_dump_id(dump_id)

        def rank_main(comm):
            from repro.core.dump import dump_output  # late: tests spy on it

            return dump_output(
                comm, dump_datasets[comm.rank], dump_config, self.cluster,
                dump_id=did, fingerprints=rank_fps[comm.rank],
                phase_hook=phase_hook,
            )

        with self._span("chain-dump", epoch=epoch, kind=kind, dump_id=did):
            reports, world = run_collective(
                self.n, rank_main, cluster=self.cluster,
                backend=self.backend, timeout=self.timeout,
            )
            if kind == "full":
                lossy = any(rep.degraded or rep.dropped_chunks for rep in reports)
                node_fps = [
                    self._written_column(r, did, datasets[r], lossy)
                    for r in range(self.n)
                ]
                total = sum(map(len, node_fps))
            changed = sum(map(len, node_fps))
            if self.trace is not None:
                self.trace.annotate(changed_chunks=changed, total_chunks=total)

        # The one place a dump changes the manager: one that raised did not.
        node = ChainNode(
            epoch=epoch,
            kind=kind,
            dump_id=did,
            parent_epoch=parent_epoch,
            segment_lengths=lengths,
            positions=positions,
            fps=node_fps,
        )
        self.nodes[epoch] = node
        self.next_epoch = epoch + 1
        new_chunks, new_bytes, cross_hits = self._record(node)
        return ChainDumpResult(
            epoch=epoch,
            kind=kind,
            dump_id=did,
            promoted=promoted,
            changed_chunks=changed,
            total_chunks=total,
            new_unique_chunks=new_chunks,
            new_unique_bytes=new_bytes,
            cross_owner_hits=cross_hits,
            reports=list(reports),
            traces=[comm.trace for comm in world.comms],
        )

    # -- restore ----------------------------------------------------------------
    def synthetic_manifest(self, rank: int, epoch: int) -> Manifest:
        """The epoch's resolved chunk set as a (synthetic) full manifest —
        ready for :func:`~repro.core.restore.restore_from_manifest`."""
        node = self.node_of(epoch)
        if node.retired:
            raise ChainStateError(
                f"epoch {epoch} was pruned and is no longer restorable"
            )
        return Manifest(
            rank=rank,
            dump_id=node.dump_id,
            segment_lengths=list(node.segment_lengths[rank]),
            fingerprints=self.resolved_fps(epoch, rank),
            chunk_size=self.config.chunk_size,
            compressed=self.config.compress is not None,
            delta=False,
        )

    def _writer_epoch(self, epoch: int, fp: bytes) -> int:
        """The newest path epoch that shipped ``fp`` (-1 when none did): a
        full that names it, or a delta whose column names it while its
        parent does not resolve to it.  A delta that names a chunk its
        parent resolves to held it and shipped nothing."""
        writer = -1
        columns: List[List[bytes]] = []
        for node in self.path_of(epoch):
            names = any(fp in column for column in node.fps)
            if node.kind == "full":
                columns = [list(column) for column in node.fps]
            else:
                names = names and not any(fp in column for column in columns)
                for rank, column in enumerate(columns):
                    self._step(column, node, rank)
            if names:
                writer = node.epoch
        return writer

    def _missing(self, fps: List[bytes]) -> List[bytes]:
        """The distinct ``fps`` no live node stores, ascending: one holder
        sweep per live node."""
        distinct = list(set(fps))
        replicas = self.cluster.holder_column(distinct).replicas()
        return sorted(compress(distinct, replicas == 0))

    def verify_epoch(self, rank: int, epoch: int) -> Optional[str]:
        """None when the epoch is restorable for ``rank``, else the reason
        (no chunk movement — mirrors ``verify_restorable``)."""
        node = self.node_of(epoch)
        if node.retired:
            return f"epoch {epoch} was pruned"
        missing = self._missing(self.resolved_fps(epoch, rank))
        if missing:
            fp = missing[0]
            writer = self._writer_epoch(epoch, fp)
            return (
                f"chunk {fp.hex()[:12]}... (written by epoch {writer}) "
                f"has no live holder"
            )
        return None

    def restore_epoch(self, rank: int, epoch: int) -> Tuple[Dataset, RestoreReport]:
        """Time-travel restore: rebuild ``rank``'s dataset as of ``epoch``.

        Raises :class:`~repro.chain.errors.ChainBrokenError` when any
        resolved chunk — the epoch's own or an ancestor's — lost every
        live holder, identifying the ancestor that wrote it; a broken
        parent must surface as a typed failure, never reassembled garbage.
        """
        manifest = self.synthetic_manifest(rank, epoch)
        depth = self.depth_of(epoch)
        with self._span("chain-restore", epoch=epoch, rank=rank, depth=depth):
            self._gauge("chain_depth", float(depth))
            try:
                return restore_from_manifest(
                    self.cluster, rank, manifest, trace=self.trace
                )
            except StorageError:
                # The restore's own plan is the one sweep over the stores a
                # healthy restore pays; who lost what is worked out only here.
                missing = self._missing(manifest.fingerprints)
                if not missing:
                    raise
        writer = self._writer_epoch(epoch, missing[0])
        raise ChainBrokenError(
            f"epoch {epoch} of rank {rank} is not restorable: "
            f"{len(missing)} chunk(s) lost every live holder (first "
            f"written by epoch {writer})",
            epoch=epoch, writer_epoch=writer, missing=missing[:8],
        )

    # -- GC ---------------------------------------------------------------------
    def prune(self, epoch: int) -> ChainGCResult:
        """Retire ``epoch``: release its chunk references, physically
        discard chunks whose last reference died, and either pin or drop
        its cluster manifests.

        An epoch that still anchors live descendants keeps a *pinned*
        manifest per rank — the subset of its written chunks still
        referenced by survivors — so referential integrity and repair
        protection of inherited chunks outlive the prune.  An epoch
        nothing depends on is dropped entirely (and retired ancestors it
        alone kept alive are swept).
        """
        node = self.node_of(epoch)
        if node.retired:
            raise ChainStateError(f"epoch {epoch} is already pruned")
        dropped = freed = distinct = retained = by_others = 0
        self._tip = None
        with self._span("chain-gc", epoch=epoch):
            for fp in sorted(self.resolved_distinct(epoch)):
                remaining, others = self.index.release(self.owner, fp)
                if remaining == 0:
                    distinct += 1
                    for store_node in self.cluster.nodes:
                        if store_node.chunks.has(fp):
                            freed += store_node.chunks.discard(fp)
                            dropped += 1
                else:
                    retained += 1
                    by_others += others
            node.retired = True
            needed = self._live_needed_epochs()
            pinned = epoch in needed
            # Refresh every surviving pin, not just this epoch's: the
            # discards above may have dropped chunks an older pin still
            # listed, and a pin must always be exactly the still-referenced
            # subset (the replication oracle checks pins like any manifest).
            for e in sorted(self.nodes):
                retired_node = self.nodes[e]
                if retired_node.retired and e in needed:
                    self._write_pins(retired_node)
            swept, manifests = self._sweep()
        return ChainGCResult(
            epoch=epoch,
            chunks_dropped=dropped,
            bytes_freed=freed,
            pinned=pinned,
            swept_epochs=swept,
            distinct_dropped=distinct,
            chunks_retained=retained,
            retained_by_others=by_others,
            manifests_dropped=manifests,
        )

    def _write_pins(self, node: ChainNode) -> None:
        """Replace the epoch's cluster manifests with pinned subsets: only
        the written chunks *this chain's* live epochs still reference,
        marked as (never directly restorable) deltas.  Another owner's
        reference pins nothing: that owner's GC may discard the chunk, and
        a pin naming an unstored chunk is a false "lost" to repair for ever."""
        cs = self.config.chunk_size
        for rank in range(self.n):
            lengths = [
                length for _seg, _start, length in chunk_slices(
                    node.segment_lengths[rank], cs,
                    node.positions[rank] if node.kind == "delta" else None,
                )
            ]
            kept_lengths = []
            kept_fps = []
            for fp, length in zip(node.fps[rank], lengths):
                refs = self.index.get(fp).refs if self.index.has(fp) else {}
                if refs.get(self.owner):
                    kept_fps.append(fp)
                    kept_lengths.append(length)
            pin = Manifest(
                rank=rank,
                dump_id=node.dump_id,
                segment_lengths=kept_lengths,
                fingerprints=kept_fps,
                chunk_size=cs,
                compressed=self.config.compress is not None,
                delta=True,
            )
            blob = pin.to_bytes()
            for store_node in self.cluster.nodes:
                if store_node.has_manifest(rank, node.dump_id):
                    store_node.put_manifest(pin, blob=blob)

    # -- compaction -------------------------------------------------------------
    def compact(self, epoch: int, dump_id: Optional[int] = None) -> ChainCompactResult:
        """Rewrite ``epoch`` as a synthetic full in place: same resolved
        chunk set (no chunk movement, references unchanged), new full
        manifests under a fresh dump id (``dump_id`` when the caller owns
        the id space, as in :meth:`chain_dump`) on the nodes that held the
        old ones, parent link severed.  Descendant deltas re-anchor
        automatically (they reference the epoch, not its dump id); retired
        ancestors only this epoch needed are swept."""
        node = self.node_of(epoch)
        if node.retired:
            raise ChainStateError(f"cannot compact pruned epoch {epoch}")
        if node.kind == "full" and node.parent_epoch is None:
            return ChainCompactResult(
                epoch=epoch, old_dump_id=node.dump_id,
                new_dump_id=node.dump_id, compacted=False,
            )
        old_dump_id = node.dump_id
        new_dump_id = self._alloc_dump_id(dump_id)
        self._tip = None
        resolved: List[List[bytes]] = []
        with self._span(
            "chain-compact", epoch=epoch,
            old_dump_id=old_dump_id, new_dump_id=new_dump_id,
        ):
            for rank in range(self.n):
                manifest = self.synthetic_manifest(rank, epoch)
                manifest.dump_id = new_dump_id
                resolved.append(manifest.fingerprints)
                blob = manifest.to_bytes()
                holders = [
                    store_node for store_node in self.cluster.nodes
                    if store_node.has_manifest(rank, old_dump_id)
                ]
                if not holders:
                    holders = [self.cluster.node_of(rank)]
                for store_node in holders:
                    store_node.put_manifest(manifest, blob=blob)
            self._drop_manifests(old_dump_id)
            node.kind = "full"
            node.dump_id = new_dump_id
            node.parent_epoch = None
            node.positions = [[] for _ in range(self.n)]
            node.fps = resolved
            swept, _manifests = self._sweep()
        return ChainCompactResult(
            epoch=epoch,
            old_dump_id=old_dump_id,
            new_dump_id=new_dump_id,
            compacted=True,
            swept_epochs=swept,
        )

    # -- persistence ------------------------------------------------------------
    def to_blob(self) -> bytes:
        """Serialize the chain (all nodes, live and retired, plus the
        epoch/dump-id counters) as one RCH1 frame."""
        return encode_chain(
            self.nodes.values(),
            n_ranks=self.n,
            chunk_size=self.config.chunk_size,
            next_epoch=self.next_epoch,
            next_dump_id=self._next_dump_id,
        )

    @classmethod
    def from_blob(
        cls,
        blob: bytes,
        cluster: Cluster,
        config: DumpConfig,
        backend: Optional[str] = None,
        index: Optional[GlobalDedupIndex] = None,
        owner: str = "chain",
        trace=None,
    ) -> "ChainManager":
        """Rebuild a manager from a :meth:`to_blob` blob over an
        existing cluster, re-recording every live epoch's references in
        the GC index (the index is derived state; the blob and the stores
        are the source of truth) in one forward pass over the nodes."""
        nodes, n_ranks, chunk_size, next_epoch, next_dump_id = (
            decode_chain(blob)
        )
        if chunk_size != config.chunk_size:
            raise ChainStateError(
                f"chain blob was written with chunk_size={chunk_size}, "
                f"config says {config.chunk_size}"
            )
        manager = cls(
            cluster, config, n_ranks, backend=backend, index=index,
            owner=owner, trace=trace,
        )
        manager.nodes = {node.epoch: node for node in nodes}
        manager.next_epoch = next_epoch
        manager._next_dump_id = next_dump_id
        for _epoch, node in sorted(manager.nodes.items()):  # a delta steps its parent
            if node.retired:
                manager._carry(node)
            else:
                manager._record(node)
        return manager

    def save(self, path) -> None:
        """Write the chain blob plus a CRC32 trailer to ``path`` atomically:
        a temp file beside it, flushed and fsynced, then renamed over it, so
        a crash or a failed write leaves the previous file intact.  The
        checksum lives here and not in the frame: wire blobs do not need it."""
        blob = self.to_blob()
        tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.write(zlib.crc32(blob).to_bytes(4, "little"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            with suppress(FileNotFoundError):  # renamed away on success
                os.unlink(tmp)

    @classmethod
    def load(cls, path, cluster, config, **kwargs) -> "ChainManager":
        """Rebuild a manager from a :meth:`save` file; an empty, torn or
        bit-flipped file raises :class:`ChainCodecError`."""
        with open(path, "rb") as fh:
            data = fh.read()
        blob = data[:-4]
        if len(data) < 4 or zlib.crc32(blob) != int.from_bytes(data[-4:], "little"):
            raise ChainCodecError(
                f"RCH1: {path}: {len(data)}B fail their CRC32 trailer "
                "(empty, torn or corrupted chain file)"
            )
        return cls.from_blob(blob, cluster, config, **kwargs)
