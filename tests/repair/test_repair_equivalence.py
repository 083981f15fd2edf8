"""The batched repair engine against its executable reference.

``tests/repair/reference.py`` is the per-chunk scan and the per-copy greedy
the columnar ``repro.repair`` replaced.  For clusters drawn over strategy,
K, store sharding, compression (unequal payload sizes), a short tail chunk,
replication or parity redundancy, one or two dumps and 1..K-1 nodes that
died or came back blank, production must find the same deficit table, emit
the same transfers in the same order, tile every destination window exactly
the way the reference lays it out, and leave the same cluster behind on
both SPMD backends — with nothing left for a second repair to move.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Strategy
from repro.repair import repair_cluster, scan_cluster

from tests.integration.test_backend_equivalence import (
    cluster_state,
    comparable_report,
)
from tests.repair.conftest import CS, assert_matches_reference, build

@st.composite
def damage_recipes(draw):
    """Everything :func:`build` needs to make one damaged cluster — a
    recipe, not a cluster, so that a test can build the same one twice."""
    k = draw(st.integers(2, 4), label="k")
    n = draw(st.integers(k, 6), label="n")
    # per dump: parity redundancy instead of replication
    parity = draw(st.lists(st.booleans(), min_size=1, max_size=2), label="parity")
    # Up to K-1 losses are repairable by construction; the occasional K-th
    # exercises lost chunks, lost manifests and a later dump's stripe
    # rescuing what an earlier dump lost.
    victims = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=k, unique=True),
        label="victims",
    )
    return {
        "k": k,
        "n": n,
        "parity": parity,
        "strategy": Strategy.COLL_DEDUP if any(parity) else draw(
            st.sampled_from(list(Strategy)), label="strategy"
        ),
        "compress": draw(st.sampled_from([None, "rle", "zlib-1"]), label="compress"),
        "shards": draw(st.sampled_from([1, 2, 8]), label="shards"),
        "seed": draw(st.integers(0, 2**16), label="seed"),
        "tail": draw(st.integers(0, CS - 1), label="tail"),
        # node id -> replaced by a blank node (else simply dead)
        "victims": {v: draw(st.booleans(), label=f"blank {v}") for v in victims},
    }


class TestAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(recipe=damage_recipes())
    def test_scan_schedule_layout_and_outcome(self, recipe):
        cluster, k = build(recipe), recipe["k"]
        scan, schedule = assert_matches_reference(cluster, k)
        report = repair_cluster(cluster, k)
        assert report.chunks_moved == schedule.chunks_scheduled
        assert report.bytes_moved == scan.deficit_bytes
        assert report.deficit_chunks == scan.deficit_chunks
        assert report.lost_chunks == len(scan.lost_chunks)
        assert sum(report.sent_chunks.values()) == report.chunks_moved
        after = scan_cluster(cluster, k)
        assert not after.fps and not after.manifests
        second = repair_cluster(cluster, k)
        assert second.bytes_moved == second.chunks_moved == 0
        assert second.manifests_moved == 0

    @settings(max_examples=6, deadline=None)
    @given(recipe=damage_recipes())
    def test_backends_leave_identical_clusters(self, recipe):
        k = recipe["k"]
        observed = {}
        for backend in ("thread", "process"):
            trial = build(recipe)
            report = repair_cluster(trial, k, backend=backend, timeout=60)
            second = repair_cluster(trial, k, backend=backend, timeout=60)
            assert second.bytes_moved == 0
            observed[backend] = (cluster_state(trial), comparable_report(report))
        assert observed["thread"] == observed["process"]
