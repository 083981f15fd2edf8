"""The exchange's and the merge-back's copy budgets, counted instead of timed.

A dump must move a rank's own chunks once (the copy its store keeps) and a
replica twice (into the partner's window, out of it into the partner's
store).  Staging buffers, window snapshots and per-region copies would all
show up as extra live bytes at the moment the last rank finishes decoding,
when every window is still mapped — so the ``tracemalloc`` peak of a dump
is bounded by what the stores end up keeping plus the windows.

On the process backend a rank's stored bytes then cross to the parent once:
the rank writes its cluster delta into the result segment and the parent's
stores keep views of that mapping.  An encoded blob, a staging copy or a
``bytes`` per chunk would each show up as a heap peak of about the whole
delta, in the child or in the parent; ``tracemalloc`` sees neither the
segment nor the mapping, so both peaks are bounded by bookkeeping alone.
"""

import gc
import tracemalloc

import numpy as np

from repro.core import DumpConfig, Strategy, dump_output, restore_dataset
from repro.core.chunking import Dataset
from repro.core.runner import run_collective
from repro.core.wire import slot_nbytes
from repro.simmpi import ProcessWorld, World
from repro.storage import Cluster

N = 4
K = 3
RANK_BYTES = 1 << 20
CHUNK = 4096
#: room for fingerprints, merge tables, plans and manifests of a
#: 4 x 256-chunk dump
SLACK = 1 << 20


def test_thread_dump_peak_is_stored_plus_window_bytes():
    # Rank-unique random bytes: nothing dedups, so every chunk is stored
    # once at home and replicated to K - 1 partners.
    datasets = [
        Dataset([np.random.RandomState(r).bytes(RANK_BYTES)]) for r in range(N)
    ]
    config = DumpConfig(
        replication_factor=K, chunk_size=CHUNK, strategy=Strategy.COLL_DEDUP
    )
    cluster = Cluster(N)
    world = World(N)

    def program(comm):
        return dump_output(comm, datasets[comm.rank], config, cluster)

    gc.collect()
    tracemalloc.start()
    try:
        reports = world.run(program)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    stored = cluster.total_physical_bytes
    assert stored == K * N * RANK_BYTES
    window = sum(r.received_chunks for r in reports) * slot_nbytes(20, CHUNK)
    # Measured: 14.2 MiB against a budget of 21 (36.5 with a staging buffer,
    # a window snapshot and per-region copies).  Thread windows are anonymous
    # mappings, which tracemalloc does not see; the budget still names them
    # because they are part of what a dump may hold.
    assert peak <= stored + window + SLACK, (
        f"peak {peak / 2**20:.1f} MiB exceeds stored {stored / 2**20:.1f} + "
        f"window {window / 2**20:.1f} + slack {SLACK / 2**20:.1f} MiB"
    )
    for rank in range(N):
        restored, _report = restore_dataset(cluster, rank)
        assert restored.to_bytes() == datasets[rank].to_bytes()


def test_no_dedup_256_dump_peak_is_kept_plus_window_bytes():
    # The shape of the cold-nodedup-256 benchmark: 2 MiB per rank in 256 B
    # chunks, no dedup, K = 4.  Per-record bookkeeping (a bytes header, a
    # fingerprint, two dict slots per stored copy) is about two thirds of a
    # 256 B payload, so "stored" is what the dump leaves allocated, measured,
    # not the payload count.  Codec temporaries over whole columns (a
    # partner's region joined at once, a window's payloads gathered at once)
    # would sit on top of it at the peak.
    n, k, rank_bytes, chunk = 4, 4, 2 << 20, 256
    datasets = [
        Dataset([np.random.RandomState(r).bytes(rank_bytes)]) for r in range(n)
    ]
    config = DumpConfig(
        replication_factor=k, chunk_size=chunk, strategy=Strategy.NO_DEDUP
    )
    cluster = Cluster(n, dedup=False)
    world = World(n)

    def program(comm):
        return dump_output(comm, datasets[comm.rank], config, cluster)

    gc.collect()
    tracemalloc.start()
    try:
        reports = world.run(program)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert cluster.total_physical_bytes == k * n * rank_bytes
    window = sum(r.received_chunks for r in reports) * slot_nbytes(20, chunk)
    # Measured: 72 MiB against a budget of 81 (54 kept + 26 window + 1).
    assert peak <= kept + window + SLACK, (
        f"peak {peak / 2**20:.1f} MiB exceeds kept {kept / 2**20:.1f} + "
        f"window {window / 2**20:.1f} + slack {SLACK / 2**20:.1f} MiB"
    )
    for rank in range(n):
        restored, _report = restore_dataset(cluster, rank)
        assert restored.to_bytes() == datasets[rank].to_bytes()


def test_process_merge_back_allocates_bookkeeping_not_payload(tmp_path, monkeypatch):
    # 16 KiB chunks: the parent keeps a view (184 B), a fingerprint and two
    # dict slots per chunk, about 470 B, which at 4 KiB would be 1.8 MiB of
    # bookkeeping for 16 MiB stored and blur a bound meant for payload copies.
    n, k, rank_bytes, chunk = 2, 2, 4 << 20, 16384
    datasets = [
        Dataset([np.random.RandomState(r).bytes(rank_bytes)]) for r in range(n)
    ]
    config = DumpConfig(
        replication_factor=k, chunk_size=chunk, strategy=Strategy.COLL_DEDUP
    )
    cluster = Cluster(n)

    # The child's share, over the store it already holds: from the collected
    # delta to the staged handle (a forked rank inherits the parent's tracing).
    collect, stage = Cluster.collect_delta, ProcessWorld.stage_result
    held = []

    def collect_then_mark(self):
        delta = collect(self)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return delta

    def stage_then_report(self, rank, nbytes, fill):
        handle = stage(self, rank, nbytes, fill)
        peak = tracemalloc.get_traced_memory()[1] - held.pop()
        (tmp_path / f"peak-{rank}").write_text(f"{peak} {nbytes}")
        return handle

    monkeypatch.setattr(Cluster, "collect_delta", collect_then_mark)
    monkeypatch.setattr(ProcessWorld, "stage_result", stage_then_report)

    def program(comm):
        return dump_output(comm, datasets[comm.rank], config, cluster)

    gc.collect()
    tracemalloc.start()
    try:
        run_collective(n, program, cluster=cluster, backend="process", timeout=60)
        _current, parent_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    stored = cluster.total_physical_bytes
    assert stored == k * n * rank_bytes
    # Measured: parent 0.7 MiB for 16 MiB stored (16.9 MiB when every chunk
    # was cut as ``bytes``), child 0.1 MiB for an 8 MiB frame (the whole
    # frame when it was joined into one blob first).
    assert parent_peak <= SLACK, f"parent peak {parent_peak / 2**20:.1f} MiB"
    for rank in range(n):
        peak, nbytes = map(int, (tmp_path / f"peak-{rank}").read_text().split())
        assert nbytes > k * rank_bytes, "the frame carries the rank's stored payloads"
        assert peak <= SLACK, (
            f"rank {rank} peak {peak / 2**20:.1f} MiB while staging {nbytes / 2**20:.1f} MiB"
        )
    for rank in range(n):
        restored, _report = restore_dataset(cluster, rank)
        assert restored.to_bytes() == datasets[rank].to_bytes()
