"""Unit and property tests for merge strategies and position maps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sparse import (
    hash_merge,
    is_sorted_unique,
    merge_two,
    pairwise_merge,
    position_maps,
    tree_merge,
    union_with_maps,
)


def arr(xs):
    return np.array(sorted(set(xs)), dtype=np.uint64)


class TestMergeTwo:
    def test_disjoint(self):
        assert merge_two(arr([1, 3]), arr([2, 4])).tolist() == [1, 2, 3, 4]

    def test_overlap_deduplicated(self):
        assert merge_two(arr([1, 2, 3]), arr([2, 3, 4])).tolist() == [1, 2, 3, 4]

    def test_empty_sides(self):
        a = arr([1, 2])
        assert merge_two(a, arr([])).tolist() == [1, 2]
        assert merge_two(arr([]), a).tolist() == [1, 2]
        assert merge_two(arr([]), arr([])).size == 0

    def test_identical(self):
        a = arr([5, 6, 7])
        assert merge_two(a, a).tolist() == [5, 6, 7]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            merge_two(np.zeros((2, 2), dtype=np.uint64), arr([1]))


class TestStrategiesAgree:
    CASES = [
        [],
        [[]],
        [[1, 2, 3]],
        [[1, 2], [2, 3], [3, 4]],
        [[10], [5], [1], [7], [3]],
        [list(range(0, 100, 2)), list(range(1, 100, 2))],
        [[1, 2, 3], [], [2, 3, 4], []],
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_all_strategies_equal(self, case):
        sets = [arr(c) for c in case]
        expect = sorted(set().union(*[set(c) for c in case])) if case else []
        for strategy in (hash_merge, pairwise_merge, tree_merge):
            assert strategy(sets).tolist() == expect, strategy.__name__

    def test_tree_merge_odd_count(self):
        sets = [arr([i]) for i in range(7)]
        assert tree_merge(sets).tolist() == list(range(7))

    def test_tree_merge_single(self):
        assert tree_merge([arr([1, 9])]).tolist() == [1, 9]


class TestPositionMaps:
    def test_maps_recover_sets(self):
        sets = [arr([1, 5, 9]), arr([2, 5, 8]), arr([1, 8])]
        union, maps = union_with_maps(sets)
        for s, m in zip(sets, maps):
            np.testing.assert_array_equal(union[m], s)

    def test_maps_enable_scatter_add(self):
        sets = [arr([1, 5]), arr([5, 9])]
        union, maps = union_with_maps(sets)
        total = np.zeros(union.size)
        np.add.at(total, maps[0], np.array([1.0, 2.0]))
        np.add.at(total, maps[1], np.array([10.0, 20.0]))
        # union = [1, 5, 9]; key 5 got 2 + 10.
        assert total.tolist() == [1.0, 12.0, 20.0]

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            position_maps(arr([1, 2]), [arr([3])])

    def test_empty_set_ok(self):
        maps = position_maps(arr([1, 2]), [arr([])])
        assert maps[0].size == 0

    def test_map_dtype_is_intp(self):
        _, maps = union_with_maps([arr([1, 2, 3])])
        assert maps[0].dtype == np.intp


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

key_sets = st.lists(
    st.lists(st.integers(0, 10_000), max_size=50).map(arr), max_size=8
)


@given(key_sets)
def test_prop_strategies_agree(sets):
    expected = pairwise_merge(sets)
    np.testing.assert_array_equal(tree_merge(sets), expected)
    np.testing.assert_array_equal(hash_merge(sets), expected)


@given(key_sets)
def test_prop_union_contains_every_element(sets):
    union, maps = union_with_maps(sets)
    assert union.size == len(set().union(*[set(s.tolist()) for s in sets])) if sets else union.size == 0
    for s, m in zip(sets, maps):
        np.testing.assert_array_equal(union[m], s)


@given(key_sets)
def test_prop_union_sorted_unique(sets):
    union = tree_merge(sets)
    if union.size > 1:
        assert np.all(union[1:] > union[:-1])


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_prop_full_64bit_domain(keys):
    """Merges must be correct over the whole uint64 ring (hashed keys)."""
    a = arr(keys)
    union = merge_two(a, a)
    np.testing.assert_array_equal(union, a)


def reference_union_with_maps(sets):
    """Reference for ``union_with_maps``: tree merge, then one
    ``searchsorted`` per set."""
    union = tree_merge(sets)
    return union, position_maps(union, sets)


def assert_matches_reference(sets):
    union, maps = union_with_maps(sets)
    ref_union, ref_maps = reference_union_with_maps(sets)
    assert union.dtype == np.uint64
    np.testing.assert_array_equal(union, ref_union)
    assert len(maps) == len(ref_maps) == len(sets)
    for m, ref in zip(maps, ref_maps):
        assert m.dtype == np.intp
        np.testing.assert_array_equal(m, ref)
        # map-injective: each map is strictly increasing, so _descend can
        # combine a part with plain fancy indexing instead of ufunc.at.
        assert is_sorted_unique(m)


# Keys on both sides of 2**63: a signed comparison would misorder them.
wide_keys = st.one_of(
    st.integers(0, 64),
    st.integers(2**63 - 32, 2**63 + 32),
    st.integers(2**64 - 64, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
wide_key_sets = st.lists(st.lists(wide_keys, max_size=30).map(arr), max_size=8)


@given(wide_key_sets)
def test_prop_fused_kernel_matches_reference(sets):
    assert_matches_reference(sets)


@given(st.lists(wide_keys, max_size=30).map(arr), st.integers(1, 5))
def test_prop_fused_kernel_identical_parts(keys, copies):
    sets = [keys.copy() for _ in range(copies)]
    assert_matches_reference(sets)
    union, maps = union_with_maps(sets)
    np.testing.assert_array_equal(union, keys)
    for m in maps:
        np.testing.assert_array_equal(m, np.arange(keys.size))


class TestFusedKernelEdges:
    def test_empty_list(self):
        union, maps = union_with_maps([])
        assert union.dtype == np.uint64 and union.size == 0
        assert maps == []

    def test_empty_parts(self):
        assert_matches_reference([arr([]), arr([])])
        assert_matches_reference([arr([]), arr([4, 2**63]), arr([])])

    def test_single_part(self):
        assert_matches_reference([arr([0, 2**63, 2**64 - 1])])

    def test_unsigned_order_above_2_63(self):
        union, maps = union_with_maps([arr([2**64 - 1, 1]), arr([2**63, 1])])
        assert union.tolist() == [1, 2**63, 2**64 - 1]
        assert [m.tolist() for m in maps] == [[0, 2], [0, 1]]
