"""The one codec suite: the frame, every schema over it, and hostile bytes.

Every blob that crosses a rank or a disk is a schema over
``repro.core.frame`` (RMT1 merge tables, RRQ1/RRP1 restore rounds, the RCD1
cluster delta with its nested RPR1 parity records, the RCH1 chain, RMF1
manifests, RPB1 parity bundles).  A new codec, or a new way for bytes to be
wrong, is one more entry in ``CODECS`` or ``mutations`` below, not a new
file:

* round trips: random schemas through the frame, random objects through
  each codec (digest strategies are biased to trailing-NUL and all-zero
  digests, the numpy ``S``-dtype bug class);
* the decode contract: any byte string gives a value or ``FrameError``
  naming the codec, never another exception, a short object or an
  allocation sized by a claimed count;
* a structure-aware fuzzer that knows where a frame's sections lie.

The layout is restated here with ``struct`` on purpose, as the spec the
module is held to.
"""

import ast
import contextlib
import functools
import pathlib
import pickle
import struct
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.chain.node import ChainNode
from repro.core import frame, wire
from repro.core.frame import DIGEST, RAGGED, RAGGED_VIEW, FrameError, Schema
from repro.core.hmerge import MergeTable, hmerge
from repro.erasure import ec_dump
from repro.erasure.ec_dump import NO_CHUNK, ParityRecord
from repro.storage import chain_codec, delta_codec, manifest as manifest_mod
from repro.storage.local_store import ClusterDelta, NodeDelta, StoreDelta
from repro.storage.manifest import Manifest

from tests.chain.test_codec import chains

W = 8  # digest width of every generated object
NUL_FPS = [b"\xaa" * (W - 1) + b"\x00", bytes(W), b"\xbb" * W, b"\x00" * (W - 1) + b"\x01"]
digests = st.one_of(
    st.sampled_from(NUL_FPS),
    st.binary(min_size=W - 2, max_size=W - 2).map(lambda head: head + b"\x00\x00"),
    st.binary(min_size=W, max_size=W),
)
small = st.integers(0, 2**40)

HEAD = struct.Struct("<4sHBB")  # magic, version, n_scalars, n_columns
ENTRY = struct.Struct("<IIQQ")  # kind, width, count, nbytes
KIND_RAGGED = 3


# -- the frame itself ----------------------------------------------------------


@st.composite
def framed(draw):
    """A random schema with scalars and columns that fit it."""
    kinds = draw(st.lists(st.sampled_from(sorted(frame._KINDS)), max_size=6))
    scalars = draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4))
    columns = []
    for kind in kinds:
        if kind in (RAGGED, RAGGED_VIEW):
            columns.append(draw(st.lists(st.binary(max_size=12), max_size=6)))
        elif kind == DIGEST:
            width = draw(st.integers(1, 9))
            item = st.binary(min_size=width, max_size=width) | st.just(bytes(width))
            columns.append(draw(st.lists(item, max_size=6)))
        else:
            info = np.iinfo(kind)
            columns.append(draw(st.lists(st.integers(int(info.min), int(info.max)), max_size=6)))
    schema = Schema(
        tuple(f"s{i}" for i in range(len(scalars))),
        tuple((f"c{i}", kind) for i, kind in enumerate(kinds)),
    )
    return schema, tuple(scalars), columns


@given(framed(), st.booleans())
def test_frame_round_trip(case, mapped):
    schema, scalars, columns = case
    blob = frame.encode(b"TST1", schema, scalars, columns)
    source = memoryview(bytearray(blob)) if mapped else blob
    got_scalars, got = frame.decode(b"TST1", source, schema)
    assert got_scalars == scalars
    assert frame.peek_scalars(b"TST1", source, schema) == scalars
    for (_name, kind), want, column in zip(schema.columns, columns, got):
        if kind == RAGGED:
            assert column == want and all(type(item) is bytes for item in column)
            continue
        if kind == RAGGED_VIEW:
            assert column == want
            assert all(type(item) is memoryview and item.readonly for item in column)
            continue
        assert column.tolist() == want
        assert not column.flags.writeable
        if kind == DIGEST:
            assert column.dtype.kind == "V"  # void, never S
        else:
            assert column.dtype == np.dtype(f"<{kind}")


@given(framed(), st.integers(-3, 3))
def test_both_sinks_of_a_layout_write_the_same_frame(case, off_by):
    """One layout, two sinks: ``encode`` is ``to_bytes``, and ``write_into``
    puts the same bytes into a caller's buffer of exactly ``nbytes``."""
    schema, scalars, columns = case
    blob = frame.encode(b"TST1", schema, scalars, columns)
    laid = frame.layout(b"TST1", schema, scalars, columns)
    assert laid.nbytes == len(blob) and laid.to_bytes() == blob
    target = bytearray(b"\xff" * (laid.nbytes + off_by))
    if off_by:
        with pytest.raises(FrameError, match="^TST1: .*buffer"):
            laid.write_into(target)
        assert target == b"\xff" * len(target)  # and nothing was written
    else:
        laid.write_into(memoryview(target))
        assert target == blob
    with pytest.raises(FrameError, match="^TST1: .*writable"):
        laid.write_into(blob)


def test_an_item_whose_len_is_not_its_size_fails_in_both_sinks():
    import array

    ragged = Schema((), (("items", RAGGED),))
    laid = frame.layout(b"TST1", ragged, (), ([b"ab", array.array("i", [1, 2])],))
    with pytest.raises(FrameError, match="^TST1: .*len\\(\\) is not its size"):
        laid.to_bytes()
    with pytest.raises(FrameError, match="^TST1: .*len\\(\\) is not its size"):
        laid.write_into(bytearray(laid.nbytes))
    # Signed bytes are one byte an item: both sinks take them.
    signed = frame.layout(b"TST1", ragged, (), ([memoryview(b"ab").cast("b")],))
    target = bytearray(signed.nbytes)
    signed.write_into(target)
    assert target == signed.to_bytes()


@given(st.lists(st.binary(max_size=12), max_size=6), st.booleans())
def test_ragged_view_is_the_ragged_cut_without_the_copy(items, mapped):
    """Same wire kind, same bytes; the items are read-only views that keep
    the blob alive instead of copies of it."""
    copied, viewed = Schema((), (("x", RAGGED),)), Schema((), (("x", RAGGED_VIEW),))
    blob = frame.encode(b"TST1", viewed, (), (items,))
    assert blob == frame.encode(b"TST1", copied, (), (items,))
    source = bytearray(blob) if mapped else blob
    (cut,) = frame.decode(b"TST1", source, copied)[1]
    (views,) = frame.decode(b"TST1", source, viewed)[1]
    assert cut == items and views == cut
    for view in views:
        assert type(view) is memoryview and view.readonly and view.obj is source
        with pytest.raises(TypeError):
            view[:1] = b"x"
    if mapped and views:
        with pytest.raises(BufferError):  # pinned while a view lives
            source.append(0)
        del views, view
        source.append(0)


def test_no_column_is_cut_before_the_last_one_checked_out(monkeypatch):
    """Every check runs before the first cut or view: damage in the last
    column's offsets must not leave views of the first one behind."""
    schema = Schema((), (("a", RAGGED_VIEW), ("b", RAGGED), ("c", RAGGED_VIEW)))
    blob = bytearray(frame.encode(b"TST1", schema, (), ([b"aa", b"a"], [b"b"], [b"cc", b"c"])))
    cuts = []
    slices = frame._slices
    monkeypatch.setattr(frame, "_slices", lambda *a: cuts.append(a) or slices(*a))
    frame.decode(b"TST1", blob, schema)
    assert len(cuts) == 3
    blob[-3 - 16] ^= 4  # first end offset of c: 2 -> 6, past the second
    del cuts[:]
    with pytest.raises(FrameError, match="^TST1: offsets of c"):
        frame.decode(b"TST1", blob, schema)
    assert cuts == []


def test_frame_encode_rejects_what_a_column_cannot_carry():
    ints = Schema((), (("n", "u1"),))
    fps = Schema((), (("fps", DIGEST),))
    for schema, column in (
        (ints, [256]), (ints, [-1]), (ints, ["x"]),
        (fps, [b"ab", b"abc"]), (fps, [b""]),
    ):
        with pytest.raises(FrameError, match="^TST1: "):
            frame.encode(b"TST1", schema, (), (column,))
    with pytest.raises(FrameError, match="^TST1: "):
        frame.encode(b"TST1", Schema(("a",), ()), (2**63,), ())
    with pytest.raises(FrameError, match="^TST1: .*schema"):
        frame.encode(b"TST1", ints, (), ())


def test_frame_rejects_a_foreign_schema_or_version():
    blob = frame.encode(b"TST1", Schema((), (("n", "u4"),)), (), ([1, 2],))
    for schema in (
        Schema((), (("n", "i4"),)),
        Schema((), (("n", "u8"),)),
        Schema((), (("n", DIGEST),)),
        Schema((), (("n", RAGGED),)),
        Schema(("s",), (("n", "u4"),)),
        Schema((), (("n", "u4"), ("m", "u4"))),
    ):
        with pytest.raises(FrameError, match="^TST1: "):
            frame.decode(b"TST1", blob, schema)
    newer = blob[:4] + (frame.VERSION + 1).to_bytes(2, "little") + blob[6:]
    with pytest.raises(FrameError, match="^TST1: .*version"):
        frame.decode(b"TST1", newer, Schema((), (("n", "u4"),)))


# -- every schema ----------------------------------------------------------------


@dataclass
class Codec:
    magic: bytes
    schema: Schema
    encode: Callable[[Any], bytes]
    decode: Callable[[Any], Any]
    objects: Any  # hypothesis strategy
    canon: Callable[[Any], Any]  # object -> a value == compares
    sample: Any  # NUL_FPS in every digest column
    empty: Any  # every column empty

    @functools.cached_property
    def blob(self) -> bytes:
        return self.encode(self.sample)

    @functools.cached_property
    def returns(self) -> type:
        return type(self.decode(self.blob))


@st.composite
def merge_tables(draw):
    n, k, f = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    fps = draw(st.lists(digests, unique=True, max_size=6))
    leaves = [
        MergeTable.from_local([fp for fp in fps if draw(st.booleans())], rank, k, f)
        for rank in range(n)
    ]
    return functools.reduce(hmerge, leaves)


def sample_table():
    leaves = [MergeTable.from_local(NUL_FPS[r:], r, 2, 16) for r in range(3)]
    return functools.reduce(hmerge, leaves)


def canon_table(t):
    return (t.k, t.f, {f: (e.freq, e.ranks) for f, e in t.entries.items()}, t.rank_load)


slots = st.lists(st.tuples(digests | st.just(NO_CHUNK), small), max_size=4)
parity_records = st.builds(
    lambda ints, members, slots, shard: ParityRecord(
        dump_id=ints[0], stripe_index=ints[1], group_members=tuple(members),
        fingerprints=tuple(fp for fp, _ in slots), chunk_sizes=tuple(n for _, n in slots),
        stripe_data=ints[2], stripe_parity=ints[3], shard_index=ints[4], shard=shard,
    ),
    st.tuples(small, small, small, small, small),
    st.lists(small, max_size=4), slots, st.binary(max_size=12),
)
node_deltas = st.builds(
    NodeDelta,
    chunks=st.lists(
        st.tuples(digests, st.none() | st.binary(max_size=9), st.integers(1, 5)), max_size=4
    ).map(StoreDelta),
    manifests=st.dictionaries(st.tuples(small, small), st.binary(max_size=9), max_size=3),
    parity=st.lists(parity_records, max_size=2),
    alive=st.sampled_from([None, True, False]),
)
cluster_deltas = st.dictionaries(st.integers(0, 9), node_deltas, max_size=3).map(ClusterDelta)


def sample_delta():
    record = ParityRecord(
        dump_id=3, stripe_index=1, group_members=(4, 1),
        fingerprints=(NUL_FPS[0], NO_CHUNK, NUL_FPS[1]), chunk_sizes=(5, 0, 7),
        stripe_data=3, stripe_parity=2, shard_index=1, shard=b"\x00shard\x00",
    )
    entries = [(fp, None if i == 2 else b"pay%d" % i, i + 1) for i, fp in enumerate(NUL_FPS)]
    return ClusterDelta({
        2: NodeDelta(StoreDelta(entries), {(1, 4): b"MANIFEST-BLOB", (0, 4): b""}, [record], None),
        0: NodeDelta(StoreDelta([]), {}, [], False),
        5: NodeDelta(StoreDelta(entries[:1]), {}, [record, record], True),
    })


def canon_delta(delta):
    return [
        (node_id, node.chunks.entries, node.manifests, node.parity, node.alive)
        for node_id, node in delta.nodes.items()
    ]


def sample_chain():
    full = ChainNode(
        epoch=0, kind="full", dump_id=7, segment_lengths=[[16, 8], [8]],
        positions=[[], []], fps=[NUL_FPS[:3], NUL_FPS[3:]],
    )
    delta = ChainNode(
        epoch=1, kind="delta", dump_id=9, parent_epoch=0, retired=True,
        segment_lengths=[[16, 8], [8]], positions=[[2], []], fps=[NUL_FPS[1:2], []],
    )
    return [full, delta], 2, 8, 2, 10


parity_bundles = st.lists(st.tuples(small, digests, st.binary(max_size=12)), max_size=6)
SAMPLE_BUNDLE = [(0, NUL_FPS[0], b"abc"), (1, NUL_FPS[1], b""), (2, NUL_FPS[2], b"\x00p"),
                 (7, NUL_FPS[3], b"z")]

manifests = st.builds(
    Manifest, rank=small, dump_id=small, segment_lengths=st.lists(small, max_size=5),
    fingerprints=st.lists(digests, max_size=8), chunk_size=st.integers(1, 2**30),
    compressed=st.booleans(), delta=st.booleans(),
)

CODECS = {
    "RMT1": Codec(
        b"RMT1", wire._MT_SCHEMA, wire.encode_merge_table, wire.decode_merge_table,
        merge_tables(), canon_table, sample_table(), MergeTable(2, 8),
    ),
    "RRQ1": Codec(
        b"RRQ1", wire._RQ_SCHEMA, wire.encode_restore_request, wire.decode_restore_request,
        st.lists(digests, max_size=8), list, NUL_FPS, [],
    ),
    "RRP1": Codec(
        b"RRP1", wire._RP_SCHEMA, wire.encode_restore_reply, wire.decode_restore_reply,
        st.lists(st.binary(max_size=12), max_size=8), list,
        [b"", b"abcde", b"\x00\x00", b"wxyz"], [],
    ),
    "RCD1": Codec(
        b"RCD1", delta_codec._SCHEMA, delta_codec.encode_cluster_delta,
        delta_codec.decode_cluster_delta, cluster_deltas, canon_delta, sample_delta(),
        ClusterDelta({}),
    ),
    "RCH1": Codec(
        b"RCH1", chain_codec._SCHEMA, lambda c: chain_codec.encode_chain(*c),
        chain_codec.decode_chain,
        st.tuples(chains(), st.integers(1, 2**30), small, small).map(
            lambda c: (c[0][0], c[0][1], c[1], c[2], c[3])
        ),
        lambda c: (sorted(c[0], key=lambda node: node.epoch), *c[1:]), sample_chain(),
        ([], 2, 8, 0, 0),
    ),
    "RMF1": Codec(
        b"RMF1", manifest_mod._SCHEMA, Manifest.to_bytes, Manifest.from_bytes, manifests,
        lambda m: m,
        Manifest(rank=3, dump_id=7, segment_lengths=[100, 0, 4096], fingerprints=NUL_FPS,
                 chunk_size=4096, compressed=True),
        Manifest(rank=0, dump_id=0),
    ),
    "RPB1": Codec(
        b"RPB1", ec_dump._BUNDLE_SCHEMA, ec_dump.encode_parity_bundle,
        ec_dump.decode_parity_bundle, parity_bundles, list, SAMPLE_BUNDLE, [],
    ),
}
each_codec = pytest.mark.parametrize("codec", CODECS.values(), ids=list(CODECS))


@each_codec
@given(data=st.data())
def test_schema_round_trip(codec, data):
    obj = data.draw(codec.objects)
    blob = codec.encode(obj)
    assert blob[:4] == codec.magic
    assert codec.canon(codec.decode(blob)) == codec.canon(obj)
    assert codec.canon(codec.decode(memoryview(bytearray(blob)))) == codec.canon(obj)


@each_codec
def test_trailing_nul_and_all_zero_digests_survive_every_digest_column(codec):
    """The samples carry NUL_FPS in every digest column (manifest, RRQ1,
    RCH1, RMT1, RCD1 chunk and parity fingerprints, RPB1)."""
    decoded = codec.decode(codec.encode(codec.sample))
    assert codec.canon(decoded) == codec.canon(codec.sample)


# -- the decode contract, case by case ------------------------------------------

DECODERS = {name: (c.magic, c.schema, c.blob, c.decode) for name, c in CODECS.items()}
DECODERS["RMF1.key_of_blob"] = (*DECODERS["RMF1"][:3], Manifest.key_of_blob)
each_decoder = pytest.mark.parametrize(
    "magic, schema, blob, decode", DECODERS.values(), ids=list(DECODERS)
)


@each_decoder
def test_empty_and_sub_header_blobs_raise_frame_error(magic, schema, blob, decode):
    """Not ``struct.error``: a peer or a disk can hand over any prefix."""
    header = HEAD.size + 8 * len(schema.scalars)
    for cut in sorted({0, 1, 3, 4, 7, header - 1}):
        with pytest.raises(FrameError, match=f"^{magic.decode()}: .*shorter"):
            decode(blob[:cut])


def test_key_of_blob_reads_the_header_alone():
    magic, schema, blob, key_of_blob = DECODERS["RMF1.key_of_blob"]
    assert key_of_blob(blob[: HEAD.size + 8 * len(schema.scalars)]) == (3, 7)
    with pytest.raises(FrameError, match="^RMF1: bad magic"):
        key_of_blob(b"RRQ1" + blob[4:])


@each_codec
def test_every_truncation_and_any_extension_is_rejected(codec):
    """A truncated RCD1 used to yield a manifest cut to ``b'MANIF'``; RMT1
    and RCD1 accepted trailing garbage."""
    blob = codec.blob
    for cut in range(len(blob)):
        with pytest.raises(FrameError, match=f"^{codec.magic.decode()}: "):
            codec.decode(blob[:cut])
    for tail in (b"\x00", b"junk", blob[:8]):
        with pytest.raises(FrameError, match=f"^{codec.magic.decode()}: .*trailing"):
            codec.decode(blob + tail)


class Boom:
    fired = False

    def __reduce__(self):
        return (setattr, (Boom, "fired", True))


def test_pickle_magic_is_a_bad_magic_and_nothing_is_unpickled():
    with pytest.raises(FrameError, match="^RCD1: bad magic b'RCDP'"):
        delta_codec.decode_cluster_delta(b"RCDP" + pickle.dumps(Boom()))
    assert not Boom.fired


def test_pickle_is_imported_only_under_simmpi():
    """Exceptions and traces of our own forked ranks are the only things
    unpickled; a codec that grows a pickle fallback fails here."""
    src = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            )
            if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
                offenders.append(str(path.relative_to(src)))
    assert [p for p in offenders if not p.startswith("simmpi/")] == []
    assert offenders, "the walk itself is broken if simmpi no longer shows up"


def table_entries(blob, schema):
    """``(offset of the entry, kind, width, count, nbytes)`` per column."""
    at = HEAD.size + 8 * len(schema.scalars)
    return [
        (at + i * ENTRY.size, *ENTRY.unpack_from(blob, at + i * ENTRY.size))
        for i in range(len(schema.columns))
    ]


@contextlib.contextmanager
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def decode_within_budget(codec, blob, label):
    """Decode hostile bytes under :func:`traced`: an object of the type the
    sample decodes to or FrameError, never another exception, and at most
    2 x len(blob) + 64 KiB allocated on the way."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = codec.decode(blob)
    except FrameError as exc:
        assert str(exc)[:4] in (*CODECS, "RPR1"), label
        result = None
    except Exception as exc:  # the contract under test
        pytest.fail(f"{label}: {exc!r}")
    peak = tracemalloc.get_traced_memory()[1] - before
    assert peak <= 2 * len(blob) + 64 * 1024, (label, peak)
    assert result is None or type(result) is codec.returns, label
    if result is None and RAGGED_VIEW in dict(codec.schema.columns).values():
        assert_failed_decode_hands_out_no_view(codec, blob, label)
    return result


def assert_failed_decode_hands_out_no_view(codec, blob, label):
    """A ``bytearray`` cannot be resized while anything views it, so a
    decode that raised and left a view of its input behind fails here."""
    buffer = bytearray(blob)
    with pytest.raises(FrameError):
        codec.decode(buffer)
    try:
        buffer.clear()
    except BufferError:
        pytest.fail(f"{label}: the failed decode still views its input")


@each_codec
def test_count_inflated_to_2_60_raises_before_any_allocation(codec):
    blob = codec.blob
    with traced():
        for at, kind, width, _count, nbytes in table_entries(blob, codec.schema):
            for claimed in (nbytes, (8 if kind == KIND_RAGGED else width) * 2**60):
                forged = bytearray(blob)
                ENTRY.pack_into(forged, at, kind, width, 2**60, claimed)
                assert decode_within_budget(codec, bytes(forged), f"entry at {at}") is None


# -- structure-aware fuzzing -------------------------------------------------------


def mutations(blob, schema):
    """``(label, bytes)`` for every structural way to damage ``blob``:
    truncation at each section boundary -1/0/+1, extension, every single-bit
    flip in the header, scalars, column table and ragged offset columns, and
    every swap of two column-table entries."""
    entries = table_entries(blob, schema)
    table_end = HEAD.size + 8 * len(schema.scalars) + ENTRY.size * len(entries)
    boundaries = [HEAD.size, HEAD.size + 8 * len(schema.scalars), table_end]
    flippable = list(range(table_end))
    pos = table_end
    for _at, kind, _width, count, nbytes in entries:
        if kind == KIND_RAGGED:
            boundaries.append(pos + 8 * count)
            flippable.extend(range(pos, pos + 8 * count))
        pos += nbytes
        boundaries.append(pos)
    for edge in boundaries:
        for cut in (edge - 1, edge, edge + 1):
            if 0 <= cut < len(blob):
                yield f"truncate at {cut}", blob[:cut]
    yield "extend by a NUL", blob + b"\x00"
    yield "extend by a header", blob + blob[: HEAD.size]
    for byte in flippable:
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[byte] ^= 1 << bit
            yield f"flip bit {bit} of byte {byte}", bytes(flipped)
    for i, (a, *_) in enumerate(entries):
        for b, *_ in entries[i + 1 :]:
            swapped = bytearray(blob)
            swapped[a : a + ENTRY.size] = blob[b : b + ENTRY.size]
            swapped[b : b + ENTRY.size] = blob[a : a + ENTRY.size]
            yield f"swap the entries at {a} and {b}", bytes(swapped)


@each_codec
def test_every_structural_mutation_of_the_sample(codec):
    with traced():
        decode_within_budget(codec, codec.blob, "intact")  # also warms imports and caches
        for blob in (codec.blob, codec.encode(codec.empty)):
            for label, mutated in mutations(blob, codec.schema):
                decode_within_budget(codec, mutated, label)


@each_codec
@given(data=st.data())
def test_structural_mutations_of_generated_blobs(codec, data):
    blob = codec.encode(data.draw(codec.objects))
    cases = list(mutations(blob, codec.schema))
    picks = data.draw(st.lists(st.integers(0, len(cases) - 1), min_size=1, max_size=16))
    with traced():
        for label, mutated in (cases[i] for i in picks):
            decode_within_budget(codec, mutated, label)
