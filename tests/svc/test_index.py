"""Global dedup index: reference counting and attribution policies."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.svc import GlobalDedupIndex


def fp(i):
    return hashlib.sha1(b"chunk-%d" % i).digest()


class TestRefCounting:
    def test_first_record_is_new_later_records_are_hits(self):
        index = GlobalDedupIndex()
        assert index.record("a", fp(0), 100) is True
        assert index.record("b", fp(0), 100) is False
        assert index.record("a", fp(0), 100) is False
        entry = index.get(fp(0))
        assert entry.first_writer == "a"
        assert entry.refs == {"a": 2, "b": 1}
        assert entry.total_refs == 3
        assert entry.tenants == ["a", "b"]

    def test_release_drops_entry_only_at_zero_total(self):
        index = GlobalDedupIndex()
        index.record("a", fp(0), 100)
        index.record("b", fp(0), 100)
        remaining, others = index.release("a", fp(0))
        assert (remaining, others) == (1, True)
        assert index.has(fp(0))
        remaining, others = index.release("b", fp(0))
        assert (remaining, others) == (0, False)
        assert not index.has(fp(0))

    def test_release_of_unknown_chunk_is_harmless(self):
        index = GlobalDedupIndex()
        assert index.release("a", fp(9)) == (0, False)

    def test_sharding_preserves_every_entry(self):
        for shard_count in (1, 2, 8):
            index = GlobalDedupIndex(shard_count=shard_count)
            for i in range(32):
                index.record("a", fp(i), 10)
            assert len(index) == 32
            assert sorted(f for f, _e in index.items()) == sorted(
                fp(i) for i in range(32)
            )


class TestAccounting:
    def make_index(self):
        """a and b share chunk 0; a owns 1 alone; b owns 2 alone."""
        index = GlobalDedupIndex()
        index.record("a", fp(0), 100)
        index.record("b", fp(0), 100)
        index.record("a", fp(1), 30)
        index.record("b", fp(2), 50)
        return index

    def test_footprint_views(self):
        index = self.make_index()
        assert index.unique_bytes == 180
        assert index.referenced_bytes("a") == 130
        assert index.referenced_bytes("b") == 150
        assert index.shared_bytes("a") == 100
        assert index.shared_bytes("b") == 100
        assert index.cross_tenant_shared_bytes == 100

    @pytest.mark.parametrize("policy", ["first-writer", "split"])
    def test_charges_always_sum_to_unique_bytes(self, policy):
        index = self.make_index()
        charged = index.charged_bytes(["a", "b"], policy=policy)
        assert sum(charged.values()) == pytest.approx(index.unique_bytes)

    def test_first_writer_pays_for_shared_chunks(self):
        charged = self.make_index().charged_bytes(
            ["a", "b"], policy="first-writer"
        )
        assert charged == {"a": 130.0, "b": 50.0}

    def test_split_divides_shared_chunks_evenly(self):
        charged = self.make_index().charged_bytes(["a", "b"], policy="split")
        assert charged == {"a": 80.0, "b": 100.0}

    def test_first_writer_bill_falls_to_a_sharer_after_gc(self):
        index = self.make_index()
        index.release("a", fp(0))
        charged = index.charged_bytes(["a", "b"], policy="first-writer")
        assert charged == {"a": 30.0, "b": 150.0}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            self.make_index().charged_bytes(["a"], policy="auction")


def recount(index, tenants):
    """``unique_bytes`` and each tenant's ``referenced_bytes`` by walking
    the whole index, which is what the running totals replace."""
    entries = [entry for _fp, entry in index.items()]
    return (
        sum(entry.size for entry in entries),
        {
            t: sum(e.size for e in entries if e.refs.get(t, 0) > 0)
            for t in tenants
        },
    )


def assert_totals_match_recount(index, tenants):
    unique, referenced = recount(index, tenants)
    assert index.unique_bytes == unique
    assert {t: index.referenced_bytes(t) for t in tenants} == referenced


class TestRunningTotals:
    TENANTS = ("a", "b", "c")

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(("record", "release")),
                st.sampled_from(TENANTS),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=60,
        ),
        shard_count=st.sampled_from((1, 3, 8)),
    )
    def test_equal_the_recount_after_every_step(self, ops, shard_count):
        # Releases of chunks a tenant never recorded, or already released,
        # are part of the sequence: they must leave the totals alone.
        index = GlobalDedupIndex(shard_count=shard_count)
        for op, tenant, i in ops:
            if op == "record":
                index.record(tenant, fp(i), 10 + i)
            else:
                index.release(tenant, fp(i))
            assert_totals_match_recount(index, self.TENANTS)

    def test_unknown_tenant_references_nothing(self):
        index = GlobalDedupIndex()
        index.record("a", fp(0), 100)
        assert index.referenced_bytes("nobody") == 0


def snapshot(index):
    """Everything observable: per-shard entries in dict order, and the
    running totals per tenant."""
    return (
        [
            [(f, e.size, e.first_writer, dict(e.refs)) for f, e in shard.items()]
            for shard in index._shards
        ],
        index.unique_bytes,
        {t: index.referenced_bytes(t) for t in ("a", "b", "c")},
    )


class TestRecordMany:
    """``record_many`` against its specification: the ``record`` loop over
    the same fingerprints, sorted."""

    @given(
        before=st.lists(
            st.tuples(
                st.sampled_from(("a", "b", "c")),
                st.integers(min_value=0, max_value=23),
            ),
            max_size=40,
        ),
        released=st.lists(st.integers(min_value=0, max_value=23), max_size=6),
        batch=st.lists(
            st.integers(min_value=0, max_value=23), unique=True, max_size=24
        ),
        as_set=st.booleans(),
        shard_count=st.sampled_from((1, 3, 8)),
    )
    def test_equals_the_record_loop(
        self, before, released, batch, as_set, shard_count
    ):
        size = {fp(i): 10 + i for i in range(24)}
        loop = GlobalDedupIndex(shard_count=shard_count)
        many = GlobalDedupIndex(shard_count=shard_count)
        for index in (loop, many):
            # other tenants' (and a's own earlier) references, some dropped
            for tenant, i in before:
                index.record(tenant, fp(i), size[fp(i)])
            for i in released:
                index.release("a", fp(i))
        fps = [fp(i) for i in batch]

        known = {f for f in fps if loop.has(f)}
        want_cross = sum(1 for f in known if "a" not in loop.get(f).refs)
        want_new = [loop.record("a", f, size[f]) for f in sorted(fps)]

        asked = []

        def size_of(new):
            asked.extend(new)
            return [size[f] for f in new]

        got = many.record_many("a", set(fps) if as_set else fps, size_of)

        assert snapshot(many) == snapshot(loop)
        assert got == (
            sum(want_new),
            sum(size[f] for f, new in zip(sorted(fps), want_new) if new),
            want_cross,
        )
        # sizes: asked once per new fingerprint, never for a known one
        assert sorted(asked) == sorted(set(fps) - known)
        assert_totals_match_recount(many, ("a", "b", "c"))

    def test_new_entries_enter_each_shard_in_ascending_order(self):
        index = GlobalDedupIndex(shard_count=2)
        index.record("b", fp(3), 1)
        fps = [fp(i) for i in (9, 1, 3, 7, 5, 0)]
        index.record_many("a", fps, lambda new: [1] * len(new))
        for shard in index._shards:
            fresh = [f for f in shard if f != fp(3)]
            assert fresh == sorted(fresh)

    def test_a_repeated_fingerprint_is_rejected_before_anything_is_recorded(self):
        index = GlobalDedupIndex()
        index.record("b", fp(0), 7)
        before = snapshot(index)
        with pytest.raises(ValueError, match="repeated"):
            index.record_many(
                "a", [fp(1), fp(0), fp(1)], lambda new: [7] * len(new)
            )
        assert snapshot(index) == before

    def test_empty_batch_records_nothing(self):
        index = GlobalDedupIndex()
        assert index.record_many("a", [], lambda new: 1 / 0) == (0, 0, 0)
        assert len(index) == 0 and index.referenced_bytes("a") == 0
