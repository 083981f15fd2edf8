"""Packed cluster-delta codec: round-trips, replay equivalence, rejections.

The codec is the wire format of the process backend's merge-back protocol
(see ``repro.storage.delta_codec``): if decode+apply ever diverges from
applying the original delta object, the process backend silently corrupts
the parent's cluster — so these tests compare full observable store state,
not just codec output.
"""


import pytest

from repro.core.frame import FrameError
from repro.erasure.ec_dump import NO_CHUNK, ParityRecord
from repro.storage import Cluster
from repro.storage.delta_codec import (
    DELTA_MAGIC,
    decode_cluster_delta,
    encode_cluster_delta,
)
from repro.storage.local_store import ClusterDelta, NodeDelta, StoreDelta
from repro.storage.manifest import Manifest


def node_state(cluster):
    out = []
    for node in cluster.nodes:
        cs = node.chunks
        out.append(
            {
                "alive": node.alive,
                "logical": cs.logical_bytes,
                "physical": cs.physical_bytes,
                "puts": cs.put_count,
                "chunks": sorted(
                    (fp, cs.refcount(fp), cs.get(fp))
                    for fp in cs.fingerprints()
                ),
                "manifests": sorted(
                    (key, node.get_manifest_blob(*key))
                    for key in node.manifest_keys()
                ),
            }
        )
    return out


def populated_delta(pre_shared=False):
    """A realistic delta: puts, duplicate puts, manifests, a node death.

    With ``pre_shared`` the marking cluster already holds one fingerprint,
    so the delta carries a payload-None entry (the "receiver already has
    the bytes" marker).
    """
    cluster = Cluster(3)
    fp_a, fp_b = b"A" * 20, b"B" * 20
    if pre_shared:
        cluster.nodes[0].chunks.put(fp_a, b"alpha")
    cluster.mark()
    cluster.nodes[0].chunks.put(fp_a, b"alpha")
    cluster.nodes[0].chunks.put(fp_a, b"alpha")  # dup -> count 2
    cluster.nodes[0].chunks.put(fp_b, b"beta!")
    cluster.nodes[1].chunks.put(fp_b, b"beta!")
    m = Manifest(rank=1, dump_id=4, segment_lengths=[10],
                 fingerprints=[fp_a, fp_b], chunk_size=5)
    cluster.nodes[1].put_manifest(m)
    cluster.fail_node(2)
    return cluster, cluster.collect_delta()


def replay_onto_fresh(delta, pre_shared=False):
    cluster = Cluster(3)
    if pre_shared:
        cluster.nodes[0].chunks.put(b"A" * 20, b"alpha")
    cluster.apply_delta(delta)
    return cluster


class TestRoundTrip:
    @pytest.mark.parametrize("pre_shared", [False, True])
    def test_decode_apply_matches_direct_apply(self, pre_shared):
        _src, delta = populated_delta(pre_shared)
        blob = encode_cluster_delta(delta)
        assert blob[:4] == DELTA_MAGIC
        decoded = decode_cluster_delta(blob)
        direct = replay_onto_fresh(delta, pre_shared)
        via_codec = replay_onto_fresh(decoded, pre_shared)
        assert node_state(direct) == node_state(via_codec)
        assert not via_codec.nodes[2].alive

    def test_payload_none_preserved(self):
        _src, delta = populated_delta(pre_shared=True)
        decoded = decode_cluster_delta(encode_cluster_delta(delta))
        entries = decoded.nodes[0].chunks.entries
        by_fp = {fp: payload for fp, payload, _c in entries}
        assert by_fp[b"A" * 20] is None  # marker, not empty bytes
        assert by_fp[b"B" * 20] == b"beta!"

    def test_decodes_from_memoryview(self):
        """The parent decodes straight out of a mapped shared segment —
        the codec must accept a memoryview without copying it first."""
        _src, delta = populated_delta()
        blob = encode_cluster_delta(delta)
        padded = b"\x00" * 8 + blob + b"\xff" * 8
        decoded = decode_cluster_delta(memoryview(padded)[8 : 8 + len(blob)])
        assert node_state(replay_onto_fresh(decoded)) == node_state(
            replay_onto_fresh(delta)
        )

    def test_empty_delta(self):
        cluster = Cluster(2)
        cluster.mark()
        delta = cluster.collect_delta()
        decoded = decode_cluster_delta(encode_cluster_delta(delta))
        assert decoded.nodes == {}


class TestFallbacks:
    def test_mixed_width_fingerprints_rejected_at_encode(self):
        """Mixed digest widths are impossible within one dump but legal
        through the raw store API; one digest column cannot carry them and
        there is no pickle to fall back to."""
        store = StoreDelta([(b"x" * 20, b"p", 1), (b"y" * 16, b"q", 1)])
        delta = ClusterDelta(
            {0: NodeDelta(store, {}, [], None)}
        )
        with pytest.raises(FrameError, match="RCD1.*width"):
            encode_cluster_delta(delta)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_cluster_delta(b"NOPE" + b"\x00" * 16)

    def test_parity_records_survive(self):
        """Parity ships as nested RPR1 frames; NO_CHUNK placeholders and a
        short tail group (fewer members than slots) included."""
        records = [
            ParityRecord(
                dump_id=3, stripe_index=s, group_members=(4, 1),
                fingerprints=(b"F" * 19 + b"\x00", NO_CHUNK, NO_CHUNK),
                chunk_sizes=(5, 0, 0), stripe_data=3, stripe_parity=2,
                shard_index=s % 2, shard=bytes([s]) * 8,
            )
            for s in range(3)
        ]
        delta = ClusterDelta(
            {1: NodeDelta(StoreDelta([]), {}, list(records), None)}
        )
        decoded = decode_cluster_delta(encode_cluster_delta(delta))
        assert decoded.nodes[1].parity == records


class TestCommutativity:
    def test_overlapping_deltas_merge_like_threads(self):
        """Two ranks putting the same fingerprint must fold to the same
        refcounts regardless of codec involvement or application order."""
        fp = b"Z" * 20
        deltas = []
        for _ in range(2):
            c = Cluster(2)
            c.mark()
            c.nodes[0].chunks.put(fp, b"zz")
            deltas.append(c.collect_delta())
        a = Cluster(2)
        for d in deltas:
            a.apply_delta(d)
        b = Cluster(2)
        for d in reversed(deltas):
            b.apply_delta(decode_cluster_delta(encode_cluster_delta(d)))
        assert node_state(a) == node_state(b)
        assert a.nodes[0].chunks.refcount(fp) == 2
