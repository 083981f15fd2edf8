"""Property suite for the ``repro.chain/v1`` manifest-chain codec.

The digest columns are the RRQ1/RRP1 bug class all over again: numpy
S-dtype strings null-strip, so a digest ending in zero bytes would decode
short.  The round-trip strategies here deliberately generate trailing-zero
digests and zero-length delta columns to pin the void-dtype decode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.node import ChainNode
from repro.storage.chain_codec import (
    ChainCodecError,
    decode_chain,
    encode_chain,
)

DIGEST_SIZE = 8


@st.composite
def chain_columns(draw, n_ranks, digest_size):
    """Per-rank (segment_lengths, positions, fps) for one node."""
    lengths = []
    positions = []
    fps = []
    for _ in range(n_ranks):
        lengths.append(draw(st.lists(
            st.integers(min_value=0, max_value=2**40), min_size=1, max_size=4
        )))
        n_fps = draw(st.integers(min_value=0, max_value=6))
        positions.append(sorted(draw(st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=n_fps, max_size=n_fps, unique=True,
        ))))
        # Trailing zeros on purpose: S-dtype would truncate these.
        fps.append([
            draw(st.binary(min_size=digest_size - 2, max_size=digest_size - 2))
            + b"\x00\x00"
            if draw(st.booleans())
            else draw(st.binary(min_size=digest_size, max_size=digest_size))
            for _ in range(n_fps)
        ])
    return lengths, positions, fps


@st.composite
def chains(draw):
    n_ranks = draw(st.integers(min_value=1, max_value=3))
    n_nodes = draw(st.integers(min_value=0, max_value=5))
    nodes = []
    for epoch in range(n_nodes):
        kind = "full" if epoch == 0 else draw(
            st.sampled_from(["full", "delta"])
        )
        lengths, positions, fps = draw(chain_columns(n_ranks, DIGEST_SIZE))
        if kind == "full":
            positions = [[] for _ in range(n_ranks)]
        parent = None
        if kind == "delta":
            parent = draw(st.integers(min_value=0, max_value=epoch - 1))
        nodes.append(ChainNode(
            epoch=epoch,
            kind=kind,
            dump_id=draw(st.integers(min_value=0, max_value=2**50)),
            parent_epoch=parent,
            retired=draw(st.booleans()),
            segment_lengths=lengths,
            positions=positions,
            fps=fps,
        ))
    return nodes, n_ranks


@settings(max_examples=60, deadline=None)
@given(
    data=chains(),
    chunk_size=st.integers(min_value=1, max_value=2**30),
    next_epoch=st.integers(min_value=0, max_value=2**31 - 1),
    next_dump_id=st.integers(min_value=0, max_value=2**50),
)
def test_round_trip(data, chunk_size, next_epoch, next_dump_id):
    nodes, n_ranks = data
    blob = encode_chain(
        nodes, n_ranks=n_ranks, chunk_size=chunk_size,
        next_epoch=next_epoch, next_dump_id=next_dump_id,
    )
    decoded, d_ranks, d_chunk, d_epoch, d_dump = decode_chain(blob)
    assert (d_ranks, d_chunk, d_epoch, d_dump) == (
        n_ranks, chunk_size, next_epoch, next_dump_id
    )
    assert len(decoded) == len(nodes)
    for want, got in zip(sorted(nodes, key=lambda n: n.epoch), decoded):
        assert got.epoch == want.epoch
        assert got.kind == want.kind
        assert got.dump_id == want.dump_id
        assert got.parent_epoch == want.parent_epoch
        assert got.retired == want.retired
        assert got.segment_lengths == want.segment_lengths
        assert got.positions == want.positions
        assert got.fps == want.fps


def test_trailing_zero_digests_survive():
    """The named bug class: digests ending in NUL bytes decode full-length."""
    fp = b"\xaa\xbb\x00\x00\x00\x00\x00\x00"
    node = ChainNode(
        epoch=0, kind="full", dump_id=0,
        segment_lengths=[[8]], positions=[[]], fps=[[fp]],
    )
    blob = encode_chain([node], 1, 8, 1, 1)
    (decoded,), *_ = decode_chain(blob)
    assert decoded.fps == [[fp]]
    assert len(decoded.fps[0][0]) == 8


def test_zero_length_delta_round_trip():
    """A rank with no dirty chunks: empty positions/fps columns."""
    full = ChainNode(
        epoch=0, kind="full", dump_id=0,
        segment_lengths=[[16], [16]],
        positions=[[], []],
        fps=[[b"\x01" * 8, b"\x02" * 8], [b"\x03" * 8]],
    )
    empty_delta = ChainNode(
        epoch=1, kind="delta", dump_id=1, parent_epoch=0,
        segment_lengths=[[16], [16]],
        positions=[[], []],
        fps=[[], []],
    )
    blob = encode_chain([full, empty_delta], 2, 8, 2, 2)
    (d_full, d_delta), *_ = decode_chain(blob)
    assert d_delta.kind == "delta"
    assert d_delta.positions == [[], []]
    assert d_delta.fps == [[], []]
    assert d_full.fps == full.fps


def test_empty_chain_round_trip():
    blob = encode_chain([], 4, 4096, 0, 0)
    nodes, n_ranks, chunk_size, next_epoch, next_dump_id = decode_chain(blob)
    assert nodes == [] and n_ranks == 4 and chunk_size == 4096


def test_bad_magic_rejected():
    blob = encode_chain([], 1, 64, 0, 0)
    with pytest.raises(ChainCodecError, match="magic"):
        decode_chain(b"XXXX" + blob[4:])


def test_bad_version_rejected():
    blob = bytearray(encode_chain([], 1, 64, 0, 0))
    blob[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(ChainCodecError, match="version"):
        decode_chain(bytes(blob))


def test_truncated_blob_rejected():
    blob = encode_chain([], 1, 64, 0, 0)
    for cut in (7, 8 + 4 * 8 - 1, len(blob) - 1):  # in the header, scalars, table
        with pytest.raises(ChainCodecError, match="short"):
            decode_chain(blob[:cut])


def test_trailing_garbage_rejected():
    blob = encode_chain([], 1, 64, 0, 0)
    with pytest.raises(ChainCodecError, match="trailing"):
        decode_chain(blob + b"\x00")


def test_mixed_digest_sizes_rejected():
    node = ChainNode(
        epoch=0, kind="full", dump_id=0,
        segment_lengths=[[8]], positions=[[]],
        fps=[[b"\x01" * 8, b"\x02" * 4]],
    )
    with pytest.raises(ChainCodecError, match="mixed"):
        encode_chain([node], 1, 8, 1, 1)


def test_rank_column_mismatch_rejected():
    node = ChainNode(
        epoch=0, kind="full", dump_id=0,
        segment_lengths=[[8]], positions=[[]], fps=[[b"\x01" * 8]],
    )
    with pytest.raises(ChainCodecError, match="rank"):
        encode_chain([node], 2, 8, 1, 1)
