"""Incremental checkpoint chain scaling: warm delta dumps vs full dumps.

Not a paper artifact: this pins the core economics of the chain layer
(``repro.chain``) — once the parent epoch has warmed the per-rank
fingerprint caches, dumping the next epoch as a delta must move only the
dirty chunks, so a lightly mutating workload dumps several times faster
than re-shipping a full every epoch.

``EPOCHS`` consecutive epochs of a 5%-dirty
:class:`~repro.apps.mutating.MutatingWorkload` are dumped as deltas on one
chain and as fulls on a second, independent chain over identical content;
the aggregate delta time must win >= 3x, and both tips are byte-compared
to the per-epoch workload oracle.  (Time-travel restore at depth is
``chain.manager.restore_s_d*`` in ``bench/``.)

The walls and the speedup print under ``pytest -s``; nothing is written.
Set ``CHAIN_SMOKE=1`` for a fast correctness-only pass (CI): sizes shrink
and the speedup floor is reported but not asserted.
"""

import os
import time

import pytest

from repro.apps.mutating import MutatingWorkload
from repro.chain import ChainManager
from repro.core import DumpConfig
from repro.storage import Cluster

pytestmark = [pytest.mark.slow, pytest.mark.bench]

SMOKE = bool(int(os.environ.get("CHAIN_SMOKE", "0")))

CS = 256
N_RANKS = 4
K = 2
DIRTY_FRAC = 0.05
EPOCHS = 3 if SMOKE else 6                # delta epochs after the base full
CHUNKS = 512 if SMOKE else 8192           # per rank
MIN_DELTA_SPEEDUP = 3.0


def _workload() -> MutatingWorkload:
    return MutatingWorkload(
        seed=4242,
        segment_lengths=(CHUNKS * CS,),
        chunk_size=CS,
        dirty_frac=DIRTY_FRAC,
    )


def _chain() -> ChainManager:
    config = DumpConfig(replication_factor=K, chunk_size=CS)
    return ChainManager(Cluster(N_RANKS), config, N_RANKS)


def test_warm_delta_dump_speedup():
    """Epochs 1..EPOCHS dumped as warm deltas vs as independent fulls."""
    delta_chain, delta_wl = _chain(), _workload()
    full_chain, full_wl = _chain(), _workload()

    # Epoch 0 is a full on both chains and warms the fingerprint caches.
    delta_chain.chain_dump(delta_wl, kind="full")
    full_chain.chain_dump(full_wl, kind="full")

    delta_wall = full_wall = 0.0
    for _ in range(EPOCHS):
        delta_wl.advance()
        start = time.perf_counter()
        result = delta_chain.chain_dump(delta_wl, kind="delta")
        delta_wall += time.perf_counter() - start
        assert result.kind == "delta" and not result.promoted
        assert result.changed_chunks < result.total_chunks

        full_wl.advance()
        start = time.perf_counter()
        result = full_chain.chain_dump(full_wl, kind="full")
        full_wall += time.perf_counter() - start
        assert result.changed_chunks == result.total_chunks

    # The two chains describe identical content at every live epoch.
    tip = delta_chain.live_epochs()[-1]
    oracle = delta_wl.at_epoch(tip)
    for rank in range(N_RANKS):
        via_delta, _ = delta_chain.restore_epoch(rank, tip)
        via_full, _ = full_chain.restore_epoch(rank, tip)
        want = oracle.build_dataset(rank, N_RANKS).to_bytes()
        assert via_delta.to_bytes() == via_full.to_bytes() == want

    speedup = full_wall / delta_wall
    print()
    print(f"-- warm delta vs full, {N_RANKS} ranks, K={K}, {EPOCHS} epochs "
          f"of {CHUNKS} x {CS} B chunks per rank, {DIRTY_FRAC:.0%} dirty --")
    print(f"full {full_wall:.4f} s, delta {delta_wall:.4f} s, "
          f"speedup {speedup:.2f}x (need >= {MIN_DELTA_SPEEDUP}x)")
    if not SMOKE:
        assert speedup >= MIN_DELTA_SPEEDUP, (
            f"warm delta dumps only {speedup:.2f}x faster than fulls on a "
            f"{DIRTY_FRAC:.0%}-dirty workload (need >= {MIN_DELTA_SPEEDUP}x)"
        )
