"""Unit tests for the Relation substrate."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import ColumnarRelation
from repro.data.relation import (
    Relation,
    SchemaError,
    StalePartitionError,
    singleton_request,
    stable_hash,
)
from repro.updates import patch_family
from repro.util.counters import Counters


def rel(name, schema, rows):
    return Relation(name, schema, rows)


def fresh_index(relation, key):
    """An index over ``key`` built from scratch, independent of any cache."""
    pos = relation.positions(key)
    out = {}
    for row in relation.tuples:
        out.setdefault(tuple(row[p] for p in pos), []).append(row)
    return out


def same_index(index, fresh):
    """Equal as indexes: same keys, same buckets as multisets."""
    return index.keys() == fresh.keys() and all(
        Counter(bucket) == Counter(fresh[k]) for k, bucket in index.items())


def assert_cached_indexes_fresh(relation):
    for key, index in relation._indexes.items():
        assert same_index(index, fresh_index(relation, key)), key


class TestConstruction:
    def test_basic(self):
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        assert len(r) == 2
        assert (1, 2) in r
        assert (2, 1) not in r

    def test_deduplicates(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 2)])
        assert len(r) == 1

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            rel("R", ("a", "b"), [(1, 2, 3)])

    def test_duplicate_schema_vars_raise(self):
        with pytest.raises(SchemaError):
            rel("R", ("a", "a"), [])

    def test_variables(self):
        r = rel("R", ("a", "b"), [])
        assert r.variables == frozenset({"a", "b"})

    def test_repr(self):
        r = rel("R", ("a",), [(1,)])
        assert "R" in repr(r)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(rel("R", ("a",), []))


class TestEquality:
    def test_equal_up_to_column_order(self):
        r1 = rel("R", ("a", "b"), [(1, 2)])
        r2 = rel("S", ("b", "a"), [(2, 1)])
        assert r1 == r2

    def test_unequal_content(self):
        r1 = rel("R", ("a", "b"), [(1, 2)])
        r2 = rel("R", ("a", "b"), [(1, 3)])
        assert r1 != r2

    def test_unequal_schema(self):
        r1 = rel("R", ("a", "b"), [])
        r2 = rel("R", ("a", "c"), [])
        assert r1 != r2


class TestProjection:
    def test_project_reorders(self):
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        p = r.project(("b", "a"))
        assert p.schema == ("b", "a")
        assert (2, 1) in p

    def test_project_deduplicates(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3)])
        assert len(r.project(("a",))) == 1

    def test_project_missing_var_raises(self):
        with pytest.raises(SchemaError):
            rel("R", ("a",), []).project(("z",))

    def test_project_counts_scans(self):
        ctr = Counters()
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        r.project(("a",), counters=ctr)
        assert ctr.scans == 2


class TestSelection:
    def test_select_equals_uses_index(self):
        ctr = Counters()
        r = rel("R", ("a", "b"), [(1, 2), (1, 3), (2, 4)])
        out = r.select_equals({"a": 1}, counters=ctr)
        assert len(out) == 2
        assert ctr.probes == 1
        # only matching rows are scanned, not the whole relation
        assert ctr.scans == 2

    def test_select_equals_multiple_vars(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3)])
        out = r.select_equals({"a": 1, "b": 3})
        assert out.tuples == {(1, 3)}

    def test_select_predicate(self):
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        out = r.select(lambda t: t["a"] > 1)
        assert out.tuples == {(3, 4)}

    def test_select_equals_no_bindings_copies(self):
        r = rel("R", ("a",), [(1,)])
        assert r.select_equals({}).tuples == r.tuples


class TestIndexes:
    def test_index_on(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3), (2, 4)])
        idx = r.index_on(("a",))
        assert sorted(idx[(1,)]) == [(1, 2), (1, 3)]

    def test_degree(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3), (2, 4)])
        assert r.degree(("a",)) == 2
        assert r.degree_of(("a",), (2,)) == 1
        assert r.degree_of(("a",), (99,)) == 0

    def test_degree_empty(self):
        assert rel("R", ("a",), []).degree(("a",)) == 0

    def test_index_invalidated_by_add(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        assert r.degree(("a",)) == 1
        r.add((1, 3))
        assert r.degree(("a",)) == 2

    def test_key_values(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3)])
        assert r.key_values(("a",)) == {(1,)}


class TestJoinSemijoin:
    def test_natural_join(self):
        r = rel("R", ("a", "b"), [(1, 2), (2, 3)])
        s = rel("S", ("b", "c"), [(2, 10), (2, 20), (9, 9)])
        out = r.join(s)
        assert set(out.schema) == {"a", "b", "c"}
        assert out.project(("a", "b", "c")).tuples == {(1, 2, 10), (1, 2, 20)}

    def test_join_no_shared_is_cross_product(self):
        r = rel("R", ("a",), [(1,), (2,)])
        s = rel("S", ("b",), [(10,)])
        assert len(r.join(s)) == 2

    def test_semijoin(self):
        r = rel("R", ("a", "b"), [(1, 2), (2, 3)])
        s = rel("S", ("b", "c"), [(2, 10)])
        out = r.semijoin(s)
        assert out.tuples == {(1, 2)}
        assert out.schema == r.schema

    def test_semijoin_disjoint_nonempty_other(self):
        r = rel("R", ("a",), [(1,)])
        s = rel("S", ("b",), [(5,)])
        assert r.semijoin(s).tuples == {(1,)}

    def test_semijoin_disjoint_empty_other(self):
        r = rel("R", ("a",), [(1,)])
        s = rel("S", ("b",), [])
        assert r.semijoin(s).is_empty()

    def test_join_counts(self):
        ctr = Counters()
        r = rel("R", ("a", "b"), [(1, 2)])
        s = rel("S", ("b", "c"), [(2, 10), (2, 20)])
        r.join(s, counters=ctr)
        assert ctr.probes == 1
        assert ctr.joins_emitted == 2


class TestUnionRename:
    def test_union_reorders(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        s = rel("S", ("b", "a"), [(3, 4)])
        out = r.union(s)
        assert out.tuples == {(1, 2), (4, 3)}

    def test_union_schema_mismatch_raises(self):
        with pytest.raises(SchemaError):
            rel("R", ("a",), []).union(rel("S", ("b",), []))

    def test_rename(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        out = r.rename({"a": "x"})
        assert out.schema == ("x", "b")
        assert (1, 2) in out


class TestBindings:
    def test_roundtrip(self):
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        back = Relation.from_bindings("R2", ("a", "b"), r.to_bindings())
        assert back == r

    def test_singleton_request(self):
        q = singleton_request(("x", "y"), (1, 2))
        assert q.tuples == {(1, 2)}
        assert q.schema == ("x", "y")


class TestIndexInvalidation:
    """Lazy hash indexes must never serve entries for stale tuple sets.

    The supported mutation surface is ``add``/``discard`` and the
    coordinated ``_delta_*`` primitives, which patch every cached index
    in place (the row joins or leaves its bucket; an emptied bucket is
    dropped), so each index stays equal to a fresh build; mutating
    ``.tuples`` directly bypasses the patching and is documented as
    unsupported — see the ``Relation`` class docstring.
    """

    def test_add_invalidates_cached_index(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        index = r.index_on(("a",))
        assert index == {(1,): [(1, 2)]}
        r.add((1, 3))
        rebuilt = r.index_on(("a",))
        assert sorted(rebuilt[(1,)]) == [(1, 2), (1, 3)]

    def test_add_invalidates_every_cached_key(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        r.index_on(("a",))
        r.index_on(("b",))
        r.add((5, 6))
        assert (5,) in r.index_on(("a",))
        assert (6,) in r.index_on(("b",))

    def test_discard_invalidates_cached_index(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3)])
        r.index_on(("a",))
        r.discard((1, 2))
        assert r.index_on(("a",)) == {(1,): [(1, 3)]}

    def test_duplicate_add_keeps_cache_and_counters(self):
        counters = Counters()
        r = rel("R", ("a", "b"), [(1, 2)])
        before = r.index_on(("a",))
        r.add((1, 2), counters=counters)  # no-op: tuple already present
        assert counters.stores == 0
        assert r.index_on(("a",)) is before  # cache survives a no-op add

    def test_selection_after_add_sees_new_tuples(self):
        # select_equals routes through the lazy index; a stale index here
        # would silently drop answers (the bug class this guards against)
        r = rel("R", ("a", "b"), [(1, 2)])
        assert len(r.select_equals({"a": 1})) == 1
        r.add((1, 7))
        assert r.select_equals({"a": 1}).tuples == {(1, 2), (1, 7)}

    def test_direct_tuples_mutation_is_documented_unsupported(self):
        # The regression this documents: raw .tuples mutation bypasses
        # invalidation, so the cached index keeps serving the old set.
        # If invalidation-on-direct-mutation is ever added, flip these
        # asserts — until then the class docstring forbids it.
        r = rel("R", ("a", "b"), [(1, 2)])
        stale = r.index_on(("a",))
        r.tuples.add((9, 9))
        assert r.index_on(("a",)) is stale
        assert (9,) not in r.index_on(("a",))


_KEYS = [(), ("a",), ("b",), ("a", "b"), ("c", "a"), ("a", "b", "c")]
_ROWS = st.tuples(*(st.integers(0, 2),) * 3)
_MUTATIONS = ("add", "discard", "_delta_add", "_delta_discard")


class TestIndexPatching:
    """Every mutation path keeps every cached index equal to a fresh build.

    The domain is tiny on purpose: inserts of present rows and deletes of
    absent ones (no-op deltas) and deletes of a bucket's last row (the
    bucket must go) all come up constantly.
    """

    @settings(max_examples=150, deadline=None)
    @given(backend=st.sampled_from([Relation, ColumnarRelation]),
           initial=st.sets(_ROWS, max_size=8),
           steps=st.lists(st.tuples(st.sampled_from(_MUTATIONS + ("index",)),
                                    _ROWS, st.sampled_from(_KEYS)),
                          max_size=30))
    def test_mutations_keep_cached_indexes_fresh(self, backend, initial,
                                                 steps):
        r = backend("R", ("a", "b", "c"), initial)
        r.index_on(("a",))
        for op, row, key in steps:
            if op == "index":
                r.index_on(key)
            else:
                version = r.version
                changed = getattr(r, op)(row)
                assert r.version == version + changed
            assert_cached_indexes_fresh(r)
            if backend is ColumnarRelation:
                # the positional caches must have been dropped, not kept
                assert sorted(r._row_data()) == sorted(r.tuples)

    @settings(max_examples=100, deadline=None)
    @given(initial=st.sets(_ROWS, max_size=8),
           added=st.lists(_ROWS, max_size=4),
           removed=st.lists(_ROWS, max_size=4))
    def test_family_sharing_one_set_is_patched_once(self, initial, added,
                                                    removed):
        owner = Relation("R", ("a", "b", "c"), initial)
        sharer = ColumnarRelation._wrap("R", ("a", "b", "c"), owner.tuples)
        copy = Relation("R", ("a", "b", "c"), initial)
        for member in (owner, sharer, copy):
            for key in _KEYS:
                member.index_on(key)
        removed = [r for r in removed if r not in added]
        want = (set(initial) | set(added)) - set(removed)
        # the owner appears twice, as a step relation that is also the
        # atom-cache entry would: it must still be patched only once
        changed = patch_family([owner, sharer, owner, copy],
                               added=added, removed=removed)
        per_set = (len(set(added) - set(initial))
                   + len(set(removed) & (set(initial) | set(added))))
        assert changed == 2 * per_set  # two distinct sets: owner's, copy's
        for member in (owner, sharer, copy):
            assert member.tuples == want
            assert_cached_indexes_fresh(member)
        assert sharer.version == owner.version

    def test_removing_last_row_drops_bucket_and_empty_key(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        r.index_on(())
        r.index_on(("a",))
        r.discard((1, 2))
        assert r._indexes == {(): {}, ("a",): {}}
        r.add((3, 4))
        assert r._indexes == {(): {(): [(3, 4)]}, ("a",): {(3,): [(3, 4)]}}


class TestPartitionViews:
    """Hash-partition views: the sharded serving layer's storage split."""

    def sample(self, n=40):
        rows = [(i % 7, i, i * 2) for i in range(n)]
        return rel("R", ("a", "b", "c"), rows)

    def test_partitions_reunion_to_identity(self):
        r = self.sample()
        parts = r.partition_by_hash(("a", "b"), 4)
        assert len(parts) == 4
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.union(part)
        assert merged == r

    def test_partitions_are_disjoint_and_routed_by_hash(self):
        r = self.sample()
        parts = r.partition_by_hash(("a",), 3)
        seen = set()
        for i, part in enumerate(parts):
            assert part.schema == r.schema
            assert not (part.tuples & seen)
            seen |= part.tuples
            for row in part.tuples:
                assert stable_hash((row[0],)) % 3 == i
        assert seen == r.tuples

    def test_tuple_payloads_are_shared_not_copied(self):
        r = self.sample(10)
        originals = {id(row): row for row in r.tuples}
        for part in r.partition_by_hash(("b",), 2):
            for row in part.tuples:
                assert id(row) in originals  # same objects, no payload copy

    def test_custom_hasher_is_used(self):
        r = self.sample(12)
        parts = r.partition_by_hash(("b",), 2, hasher=lambda key: key[0])
        for row in parts[0].tuples:
            assert row[1] % 2 == 0
        for row in parts[1].tuples:
            assert row[1] % 2 == 1

    def test_empty_relation_yields_empty_shards(self):
        r = rel("R", ("a", "b"), [])
        parts = r.partition_by_hash(("a",), 5)
        assert len(parts) == 5
        assert all(part.is_empty() for part in parts)
        # empty shards still behave like relations (joinable, indexable)
        assert parts[0].index_on(("a",)) == {}

    def test_single_shard_is_a_full_copy_of_the_tuple_set(self):
        r = self.sample()
        [only] = r.partition_by_hash(("a",), 1)
        assert only.tuples == r.tuples

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError, match="positive"):
            self.sample().partition_by_hash(("a",), 0)

    def test_missing_key_variable_raises(self):
        with pytest.raises(SchemaError):
            self.sample().partition_by_hash(("z",), 2)

    def test_partition_index_invalidation_still_fires(self):
        r = self.sample()
        part = r.partition_by_hash(("a",), 2)[0]
        index = part.index_on(("a",))
        row = next(iter(part.tuples))
        # plain add on a view is guarded while the base lives — it would
        # silently desynchronize the partition cover; mutations reach
        # views through the coordinated delta path (repro.updates)
        with pytest.raises(StalePartitionError):
            part.add((99, 99, 99))
        part._delta_add((99, 99, 99))
        rebuilt = part.index_on(("a",))
        assert same_index(rebuilt, fresh_index(part, ("a",)))
        assert (99,) in rebuilt and (row[0],) in rebuilt
        # the parent relation and sibling partitions are untouched
        assert (99, 99, 99) not in r.tuples

    def test_partition_names_mark_the_shard(self):
        parts = self.sample().partition_by_hash(("a",), 2)
        assert [p.name for p in parts] == ["R@0", "R@1"]


class TestCounterHygiene:
    """Equality and union bookkeeping must not leak into global counters."""

    def test_eq_across_column_orders_charges_nothing_globally(self):
        from repro.util.counters import global_counters

        r1 = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        r2 = rel("S", ("b", "a"), [(2, 1), (4, 3)])
        before = global_counters.scans
        assert r1 == r2
        assert global_counters.scans == before

    def test_union_reorder_charges_nothing_globally(self):
        from repro.util.counters import global_counters

        r1 = rel("R", ("a", "b"), [(1, 2)])
        r2 = rel("S", ("b", "a"), [(5, 6)])
        before = global_counters.scans
        out = r1.union(r2)
        assert out.tuples == {(1, 2), (6, 5)}
        assert global_counters.scans == before


class TestSelectEqualsValidation:
    def test_unknown_binding_variable_raises(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        with pytest.raises(SchemaError, match="z"):
            r.select_equals({"z": 1})

    def test_mixed_known_and_unknown_raises_not_filters(self):
        # a typo must never silently return unfiltered rows
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        with pytest.raises(SchemaError):
            r.select_equals({"a": 1, "typo": 2})
