"""Per-layer measurement from outside the program.

The *layer walk* takes the inputs of one real dump (the per-rank datasets
and the ``DumpConfig``) and replays the pipeline single-threaded, rank by
rank, calling each layer's public functions inside spans: hash → local
dedup → HMERGE → plan → shuffle → ``CALC_OFF`` → wire encode → window copy
→ wire decode → store commit → manifest, then plan → locate → fetch →
reassemble for the restore.  The walk builds a scratch cluster that must
hold exactly the bytes the real dump stored and must restore byte-equal;
both are correctness gates.

The *probes* time the substrate layers the walk cannot reach (windows,
collectives, world spawn, result blobs) in a bare world on the captured
sizes, and the host calibration kernels give the normalisers.
"""

from __future__ import annotations

import hashlib
import operator
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import (
    Dataset,
    DumpConfig,
    Fingerprinter,
    FingerprintCache,
    GlobalView,
    MergeTable,
    Strategy,
    build_plan,
    identity_shuffle,
    local_dedup_batched,
    partners_of,
    rank_shuffle,
    window_layout,
)
from repro.core.global_dedup import reduction_merge_tree
from repro.core.restore_plan import cut_segments, plan_restore
from repro.core.shuffle import inverse_positions
from repro.core.wire import (
    decode_merge_table,
    decode_region_unique,
    decode_restore_reply,
    decode_restore_request,
    encode_merge_table,
    encode_records_into,
    encode_restore_reply,
    encode_restore_request,
    slot_nbytes,
)
from repro.simmpi import Window, collectives, create_world
from repro.storage import Cluster, Manifest
from repro.storage.delta_codec import decode_cluster_delta, encode_cluster_delta

from bench.harness import Spans

_PROBE_REPS = 5


class _SpannedFingerprinter(Fingerprinter):
    """A fingerprinter whose batch kernel runs inside a span, so hashing
    shows as a child of the local-dedup span that calls it."""

    def __init__(self, hash_name: str, spans: Spans) -> None:
        super().__init__(hash_name)
        self._spans = spans

    def fingerprint_segment(self, buffer, chunk_size):
        with self._spans.span("core.fingerprint"):
            return super().fingerprint_segment(buffer, chunk_size)


def walk_dump(
    spans: Spans,
    datasets: Sequence[Dataset],
    config: DumpConfig,
    dedup: bool = True,
    shard_count: int = 1,
    delta_codec: bool = False,
) -> Dict[str, object]:
    """Replay one dump of ``datasets`` layer by layer into a scratch
    cluster.  Returns the cluster, its manifests and the counts the layer
    metrics need.  ``delta_codec`` adds the cluster-delta round trip that
    carries a process-backend rank's writes back to its parent."""
    n = len(datasets)
    k = config.effective_k(n)
    cs = config.chunk_size
    coll = config.strategy is Strategy.COLL_DEDUP
    fingerprinter = _SpannedFingerprinter(config.effective_hash_name, spans)
    digest = fingerprinter.digest_size
    capacity = config.wire_payload_capacity
    slot = slot_nbytes(digest, capacity)
    facts: Dict[str, object] = {}

    with spans.span("walk"):
        indices = []
        for rank in range(n):
            with spans.span("core.local_dedup"):
                indices.append(local_dedup_batched(datasets[rank], fingerprinter, cs))

        view = None
        if coll:
            tables = []
            for rank in range(n):
                with spans.span("core.hmerge.from_local"):
                    tables.append(
                        MergeTable.from_local(
                            indices[rank].counts.keys(), rank, k, config.f_threshold
                        )
                    )
            with spans.span("core.wire.merge_table_codec"):
                decode_merge_table(encode_merge_table(tables[0]))
            with spans.span("core.hmerge.merge_tree"):
                merged, level_nbytes = reduction_merge_tree(tables)
            with spans.span("core.hmerge.view"):
                view = GlobalView.from_table(merged)
            facts.update(
                rounds=len(level_nbytes),
                view_entries=len(view),
                view_bytes=view.nbytes_estimate(),
            )

        plans = []
        for rank in range(n):
            with spans.span("core.planner.build_plan"):
                plans.append(
                    build_plan(
                        rank, indices[rank], view, k, n,
                        dedup_local=config.strategy is not Strategy.NO_DEDUP,
                    )
                )
        # Top-ups: copies sent of natural duplicates that fewer than K ranks
        # hold (the other records replicate chunks only one rank has).
        if view is not None:
            facts["topup_chunks"] = sum(
                len(view.designated(fp)) > 1
                for plan in plans for fps in plan.partner_chunks for fp in fps
            )
        send_load = [plan.load for plan in plans]
        with spans.span("core.shuffle.rank_shuffle"):
            if coll and config.shuffle:
                shuffle = rank_shuffle([sum(row[1:]) for row in send_load], k)
            else:
                shuffle = identity_shuffle(n)
        positions = inverse_positions(shuffle)
        with spans.span("core.offsets.window_layout"):
            layout = window_layout(shuffle, send_load, k)

        # Exchange: encode each partner region, copy it to the target's window
        # at its CALC_OFF offset (what Window.put_many does), decode per region.
        with spans.span("walk.window_copy"):
            windows = [bytearray(layout.window_slots[r] * slot) for r in range(n)]
        partners = [partners_of(positions[r], shuffle, k) for r in range(n)]
        records = wire_bytes = 0
        region_bytes: List[int] = []
        for rank, plan in enumerate(plans):
            payload_of = indices[rank].unique
            sendbuf = bytearray(
                max((len(fps) for fps in plan.partner_chunks), default=0) * slot
            )
            for p, fps in enumerate(plan.partner_chunks):
                if not fps:
                    continue
                target = partners[rank][p]
                base = layout.offset_of(rank, target) * slot
                nbytes = len(fps) * slot
                with spans.span("core.wire.encode"):
                    encode_records_into(
                        sendbuf, ((fp, payload_of[fp]) for fp in fps), digest, capacity
                    )
                with spans.span("walk.window_copy"):
                    windows[target][base : base + nbytes] = memoryview(sendbuf)[:nbytes]
                records += len(fps)
                wire_bytes += nbytes
                region_bytes.append(nbytes)
        received = []
        for rank in range(n):
            with spans.span("walk.window_copy"):
                incoming = bytes(windows[rank])
            items = []
            for _sender, start, count in layout.regions[rank]:
                with spans.span("core.wire.decode"):
                    pairs, mults, _nbytes = decode_region_unique(
                        incoming, digest, capacity, start, count
                    )
                items.extend((fp, data, m) for (fp, data), m in zip(pairs, mults))
            received.append(items)

        cluster = Cluster(n, dedup=dedup, shard_count=shard_count)
        cluster.mark()
        manifests = []
        put_bytes = manifest_bytes = 0
        for rank, plan in enumerate(plans):
            node = cluster.storage_for(rank)
            payload_of = indices[rank].unique
            with spans.span("storage.local_store.put_many"):
                node.chunks.put_many((fp, payload_of[fp]) for fp in plan.store_fps)
            with spans.span("storage.local_store.put_counted"):
                node.chunks.put_counted(received[rank])
            manifest = Manifest(
                rank=rank,
                dump_id=0,
                segment_lengths=datasets[rank].segment_lengths,
                fingerprints=indices[rank].order,
                chunk_size=cs,
            )
            with spans.span("storage.manifest.encode"):
                blob = manifest.to_bytes()
            with spans.span("storage.manifest.decode"):
                Manifest.from_bytes(blob)
            node.put_manifest(manifest, blob=blob)
            for partner in partners[rank]:
                cluster.node_of(partner).put_manifest_blob(blob)
            manifests.append(manifest)
            manifest_bytes += len(blob)
        if delta_codec:
            with spans.span("storage.delta_codec.encode"):
                delta_blob = encode_cluster_delta(cluster.collect_delta())
            with spans.span("storage.delta_codec.decode"):
                decode_cluster_delta(delta_blob)
            facts.update(delta_blob=delta_blob, delta_bytes=len(delta_blob))

    for rank, plan in enumerate(plans):
        put_bytes += sum(indices[rank].chunk_sizes[fp] for fp in plan.store_fps)
        put_bytes += sum(len(data) * m for _fp, data, m in received[rank])
    sizes: Dict[bytes, int] = {}
    for index in indices:
        sizes.update(index.chunk_sizes)
    total_chunks = sum(index.total_chunks for index in indices)
    unique_chunks = sum(index.unique_chunks for index in indices)
    facts.update(
        cluster=cluster,
        manifests=manifests,
        k=k,
        dataset_bytes=sum(d.nbytes for d in datasets),
        total_chunks=total_chunks,
        unique_frac=unique_chunks / total_chunks,
        discarded_frac=sum(len(p.discarded_fps) for p in plans) / unique_chunks,
        distinct_chunks=len(sizes),
        distinct_bytes=sum(sizes.values()),
        window_slots_max=max(layout.window_slots.values()),
        records=records,
        wire_bytes=wire_bytes,
        region_bytes=region_bytes,
        put_bytes=put_bytes,
        manifest_bytes=manifest_bytes,
    )
    return facts


def walk_restore(
    spans: Spans, cluster: Cluster, rank: int, manifest: Manifest
) -> Dict[str, object]:
    """Replay one rank's restore layer by layer; returns the dataset and
    the plan's locality counts."""
    with spans.span("walk"):
        with spans.span("core.restore_plan.plan"):
            plan = plan_restore(cluster, rank, manifest)
        fps = plan.fps
        with spans.span("storage.local_store.locate_many"):
            cluster.locate_many(fps)
        payloads: List[Optional[bytes]] = [None] * len(fps)
        got_bytes = 0
        groups = [(plan.own_node_id, plan.local_indices)]
        groups.extend(plan.remote_groups().items())
        for node_id, wanted in groups:
            if not wanted:
                continue
            request = [fps[i] for i in wanted]
            remote = node_id != plan.own_node_id
            if remote:
                with spans.span("core.wire.restore_codec"):
                    request = decode_restore_request(encode_restore_request(request))
            with spans.span("storage.local_store.get_many"):
                reply = cluster.nodes[node_id].chunks.get_many(request)
            if remote:
                with spans.span("core.wire.restore_codec"):
                    reply = decode_restore_reply(encode_restore_reply(reply))
            for i, payload in zip(wanted, reply):
                payloads[i] = payload
                got_bytes += len(payload)
        with spans.span("core.restore.reassemble"):
            chunks = [payloads[i] for i in plan.index.tolist()]
            segments = cut_segments(chunks, manifest.segment_lengths, rank)
    source = plan.sources[plan.index]
    runs = 1 + int(np.count_nonzero(source[1:] != source[:-1]))
    return {
        "dataset": Dataset(segments),
        "remote_frac": 1.0 - float(np.mean(plan.local)),
        "source_runs_per_MB": runs / (manifest.total_bytes / 1e6),
        "get_bytes": got_bytes,
    }


def probe_fpcache(
    datasets: Sequence[Dataset], regions: Sequence, config: DumpConfig
) -> Dict[str, float]:
    """A warm ``FingerprintCache.fingerprint_dataset`` call per rank: the
    cache is primed on the same datasets, then asked again with the epoch's
    dirty regions, which is the lookup a delta dump pays."""
    fingerprinter = Fingerprinter(config.effective_hash_name)
    seconds = hits = misses = skipped = 0
    for dataset, dirty in zip(datasets, regions):
        cache = FingerprintCache(config.chunk_size, config.effective_hash_name)
        cache.fingerprint_dataset(dataset, fingerprinter, None)
        cache.take_stats()
        start = time.perf_counter()
        cache.fingerprint_dataset(dataset, fingerprinter, dirty)
        seconds += time.perf_counter() - start
        stats = cache.take_stats()
        hits += stats.hits
        misses += stats.misses
        skipped += stats.bytes_skipped
    total = sum(d.nbytes for d in datasets)
    return {
        "core.fpcache.lookup_s": seconds,
        "core.fpcache.hit_frac": hits / (hits + misses),
        "core.fpcache.bytes_skipped_frac": skipped / total,
    }


def _median_max(per_rank: List[List[float]]) -> float:
    """Median over iterations of the slowest rank's seconds."""
    return statistics.median(max(col) for col in zip(*per_rank))


def probe_simmpi(n: int, k: int, facts: Dict[str, object]) -> Dict[str, float]:
    """A bare thread world doing only window put+fence on the captured
    region size, and small allreduce/allgather; plus world spawn+barrier."""
    region = bytes(max(facts["region_bytes"], default=0))

    def program(comm):
        window_s, allreduce_s, allgather_s = [], [], []
        for _ in range(_PROBE_REPS):
            start = time.perf_counter()
            window = Window.create(comm, (k - 1) * len(region))
            for p in range(1, k):
                window.put_many(
                    [((p - 1) * len(region), region)], (comm.rank + p) % n
                )
            window.fence()
            window.local_view()
            window.free()
            window_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            collectives.allreduce(comm, comm.rank, operator.add)
            allreduce_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            collectives.allgather(comm, [comm.rank] * k)
            allgather_s.append(time.perf_counter() - start)
        return window_s, allreduce_s, allgather_s

    results = create_world(n).run(program)
    return {
        "simmpi.window.put_fence_s": _median_max([r[0] for r in results]),
        "simmpi.collectives.allreduce_small_s": _median_max([r[1] for r in results]),
        "simmpi.collectives.allgather_small_s": _median_max([r[2] for r in results]),
        "simmpi.world.spawn_barrier_s": _spawn_barrier_s(n, "thread"),
    }


def _spawn_barrier_s(n: int, backend: str) -> float:
    walls = []
    for _ in range(_PROBE_REPS):
        start = time.perf_counter()
        create_world(n, backend=backend).run(lambda comm: comm.barrier())
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def probe_procworld(n: int, blob: bytes) -> Dict[str, float]:
    """Process world spawn+barrier, and the staged result blob round trip
    (rank stages ``blob`` in shared memory, parent maps and reads it)."""

    def program(comm):
        start = time.perf_counter()
        handle = comm.world.stage_result_blob(comm.rank, blob)
        return handle, time.perf_counter() - start

    walls = []
    for _ in range(_PROBE_REPS):
        world = create_world(n, backend="process")
        try:
            staged = world.run(program)
            start = time.perf_counter()
            for handle, _stage_s in staged:
                with world.open_result_blob(handle) as buf:
                    bytes(buf)
            walls.append(
                time.perf_counter() - start + max(s for _h, s in staged)
            )
        finally:
            world.sweep_result_blobs()
    return {
        "simmpi.procworld.spawn_barrier_s": _spawn_barrier_s(n, "process"),
        "simmpi.procworld.result_blob_s": statistics.median(walls),
    }


def host_calibration() -> Dict[str, float]:
    """Calibration kernels, run once per traced invocation: normalisers
    that make figures comparable across machines, never gated."""
    size = 16 << 20
    buf = bytes(range(256)) * (size // 256)

    def best_MBps(fn) -> float:
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        return size / min(walls) / 1e6

    fast = Fingerprinter("xx128")
    fork_s = []
    for _ in range(_PROBE_REPS):
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        fork_s.append(time.perf_counter() - start)
    return {
        "host.sha1_MBps": best_MBps(lambda: hashlib.sha1(buf).digest()),
        "host.xx128_MBps": best_MBps(lambda: fast.fingerprint_segment(buf, 4096)),
        "host.memcpy_MBps": best_MBps(lambda: bytearray(buf)),
        "host.fork_barrier_s": statistics.median(fork_s),
        "host.nproc": float(os.cpu_count() or 1),
    }
