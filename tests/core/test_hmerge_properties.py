"""HMERGE algebraic properties under truncation (hypothesis).

The reduction's correctness argument needs HMERGE to behave like a
commutative aggregation whose *observable content* does not depend on the
reduction tree:

* symmetry, ``hmerge(a, b) == hmerge(b, a)``, holds unconditionally —
  recursive doubling applies the operator with swapped arguments on the
  two sides of every exchange;
* with neither bound active (F >= distinct fingerprints, K >= ranks) the
  operator is fully associative: any reduction order yields the exact
  union table — frequency = owner count, designated = all owners;
* with K truncating (K < owners), the surviving *set* of fingerprints,
  every frequency, and the designated-list *size* ``min(owners, K)`` are
  still order-insensitive, and designated ranks are always genuine owners
  (which rank survives eviction is load-dependent and MAY differ between
  trees — the planner only relies on the properties asserted here);
* with F truncating, every intermediate and final table is bounded by F.
"""

import functools

from hypothesis import given, strategies as st

from repro.core.hmerge import MergeTable, hmerge


def fp(i):
    return bytes([i]) * 20


@st.composite
def ownerships(draw, max_ranks=6, max_fps=8):
    """A world: per-fingerprint nonempty owner sets over n ranks."""
    n = draw(st.integers(2, max_ranks))
    m = draw(st.integers(1, max_fps))
    owners = {
        fp(i): tuple(sorted(draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        )))
        for i in range(m)
    }
    return n, owners


def leaf_tables(n, owners, k, f):
    return [
        MergeTable.from_local(
            [fp_ for fp_, ranks in owners.items() if rank in ranks],
            rank, k, f,
        )
        for rank in range(n)
    ]


def fold(tables, order):
    out = functools.reduce(
        hmerge, (tables[i] for i in order[1:]), tables[order[0]]
    )
    out.check_invariants()
    return out


def tree_fold(tables):
    """Pairwise (recursive-doubling shaped) reduction."""
    level = list(tables)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            merged = hmerge(level[i], level[i + 1])
            merged.check_invariants()
            nxt.append(merged)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def entries_of(table):
    return {f: (e.freq, e.ranks) for f, e in table.entries.items()}


@given(ownerships(), st.integers(1, 4), st.integers(1, 12))
def test_hmerge_is_commutative_under_any_truncation(world, k, f):
    n, owners = world
    tables = leaf_tables(n, owners, k, f)
    for i in range(len(tables) - 1):
        ab = hmerge(tables[i], tables[i + 1])
        ba = hmerge(tables[i + 1], tables[i])
        assert entries_of(ab) == entries_of(ba)


@given(ownerships(), st.data())
def test_untruncated_reduction_is_order_insensitive(world, data):
    n, owners = world
    k, f = n, len(owners) + 4  # neither bound can bite
    tables = leaf_tables(n, owners, k, f)
    order = data.draw(st.permutations(range(n)))
    linear = fold(tables, list(order))
    tree = tree_fold(tables)
    expected = {f_: (len(ranks), ranks) for f_, ranks in owners.items()}
    assert entries_of(linear) == expected
    assert entries_of(tree) == expected


@given(ownerships(), st.integers(1, 3), st.data())
def test_k_truncated_reduction_preserves_content_and_list_size(
    world, k, data
):
    n, owners = world
    f = len(owners) + 4
    tables = leaf_tables(n, owners, k, f)
    order = data.draw(st.permutations(range(n)))
    merged = fold(tables, list(order))
    tree = tree_fold(tables)
    for result in (merged, tree):
        got = result.entries
        assert set(got) == set(owners)
        for fp_, entry in got.items():
            assert entry.freq == len(owners[fp_])
            assert len(entry.ranks) == min(len(owners[fp_]), k)
            assert set(entry.ranks) <= set(owners[fp_])


@given(ownerships(), st.integers(1, 3), st.integers(1, 4), st.data())
def test_f_truncated_tables_stay_bounded(world, k, f, data):
    n, owners = world
    tables = leaf_tables(n, owners, k, f)
    order = data.draw(st.permutations(range(n)))
    acc = tables[order[0]]
    for i in order[1:]:
        acc = hmerge(acc, tables[i])
        acc.check_invariants()
        assert len(acc) <= f
    # Survivors never over-count and only designate genuine owners.  An
    # exact frequency is NOT guaranteed: a fingerprint evicted by the top-F
    # cut restarts its count if it re-enters from a later leaf — the
    # paper's "considered unique even if they are not" relaxation.
    for fp_, entry in acc.entries.items():
        assert 1 <= entry.freq <= len(owners[fp_])
        assert set(entry.ranks) <= set(owners[fp_])


# -- GlobalView.wire_nbytes caching ------------------------------------------
#
# The view caches its packed wire size at construction so reduction-cost
# accounting never re-walks the entry dict.  The cache is only sound if it
# always equals a *fresh* count over the entries of the view it is attached
# to — in particular after hmerge truncation has evicted designated ranks
# (K bound) or whole fingerprints (F bound), and when several views are
# materialised from different tables in sequence.


def fresh_payload_nbytes(view):
    """The modelled wire size recounted entry by entry: digest + u32
    frequency per fingerprint, u32 per designated rank."""
    return sum(len(fp) + 4 + 4 * len(e.ranks) for fp, e in view.entries.items())


@given(ownerships(), st.integers(1, 3), st.integers(1, 6), st.data())
def test_wire_nbytes_matches_fresh_encode_after_merge_and_eviction(
    world, k, f, data
):
    from repro.core.hmerge import GlobalView

    n, owners = world
    tables = leaf_tables(n, owners, k, f)
    order = data.draw(st.permutations(range(n)))
    acc = tables[order[0]]
    views = [GlobalView.from_table(acc)]
    for i in order[1:]:
        acc = hmerge(acc, tables[i])
        views.append(GlobalView.from_table(acc))
    # Every intermediate view (including post-eviction ones) reports the
    # size of its own entries — never a stale predecessor's.
    for view in views:
        assert view.wire_nbytes == fresh_payload_nbytes(view)
        assert view.nbytes_estimate() == view.wire_nbytes


@given(ownerships(), st.integers(1, 3))
def test_from_table_never_serves_stale_size(world, k):
    from repro.core.hmerge import GlobalView

    n, owners = world
    # A big table first, then a heavily F-truncated one: if from_table
    # cached across calls, the second view would inherit the first's size.
    big = tree_fold(leaf_tables(n, owners, n, len(owners) + 4))
    small = tree_fold(leaf_tables(n, owners, k, 1))
    view_big = GlobalView.from_table(big)
    view_small = GlobalView.from_table(small)
    assert view_big.wire_nbytes == fresh_payload_nbytes(view_big)
    assert view_small.wire_nbytes == fresh_payload_nbytes(view_small)
    if len(owners) > 1:
        assert view_small.wire_nbytes < view_big.wire_nbytes
