"""``sparse_decrements`` counts the gathered members by density.

Members that outnumber the universe twice over are counted with one
histogram, fewer are sorted and run-length measured.  Either way the reply
is the sorted ``(nodes, decrements)`` of ``np.unique(members,
return_counts=True)`` in ``int64`` — what the oracle's dict loop ships and
what the gather is priced on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.kernel import FlatArrays, mark_and_decrement, sparse_decrements
from repro.ris.flat import FlatPrefixView, FlatRRCollection
from repro.ris.rrset import RRSample
from repro.ris.wire import tuple_vector_nbytes
from tests.oracle import RRCollection, reference_decrements


def stores_of(sets, num_nodes):
    flat, reference = FlatRRCollection(num_nodes), RRCollection(num_nodes)
    for nodes in sets:
        nodes = np.asarray(nodes, dtype=np.int32)
        for store in (flat, reference):
            store.add(RRSample(nodes=nodes, root=int(nodes[0]) if nodes.size else 0, edges_examined=0))
    return flat, reference


def assert_same_reply(sets, num_nodes, seed, already_covered=()):
    flat, reference = stores_of(sets, num_nodes)
    covered = np.zeros(len(sets), dtype=bool)
    covered[list(already_covered)] = True
    want_flags = covered.copy()
    fresh = [i for i, nodes in enumerate(sets) if seed in nodes and not covered[i]]
    want_flags[fresh] = True
    members = np.concatenate([np.asarray(sets[i], dtype=np.int32) for i in fresh] or [np.zeros(0, np.int32)])
    want_nodes, want_decs = np.unique(members, return_counts=True)

    flags = covered.copy()
    nodes, decs, newly = sparse_decrements(flat, seed, flags)
    assert (nodes.dtype, decs.dtype) == (np.int64, np.int64)
    np.testing.assert_array_equal(nodes, want_nodes)
    np.testing.assert_array_equal(decs, want_decs)
    assert decs.dtype == want_decs.dtype
    assert newly == len(fresh)
    np.testing.assert_array_equal(flags, want_flags)

    ref_flags = covered.copy()
    ref_nodes, ref_decs, ref_newly = reference_decrements(reference, seed, ref_flags)
    assert (ref_nodes.dtype, ref_decs.dtype) == (nodes.dtype, decs.dtype)
    np.testing.assert_array_equal(ref_nodes, nodes)
    np.testing.assert_array_equal(ref_decs, decs)
    assert ref_newly == newly
    assert tuple_vector_nbytes(ref_nodes, ref_decs) == tuple_vector_nbytes(nodes, decs)
    return members.size


class TestDensityBoundary:
    @pytest.mark.parametrize("extra", [-2, -1, 0, 1, 2])
    def test_both_sides_of_two_members_per_node(self, extra):
        # Universe of 6: node 0's sets hold 12 + extra members together.
        num_nodes, total = 6, 12 + extra
        rng = np.random.default_rng(total)
        sets, left = [], total
        while left:
            size = min(left, int(rng.integers(2, 5)))
            if left - size == 1:
                size += 1  # no singleton tail: every set holds node 0 plus others
            others = rng.choice(np.arange(1, num_nodes), size=size - 1, replace=False)
            sets.append(sorted([0, *others.tolist()]))
            left -= size
        sets.append([3, 4])  # never touched by seed 0
        assert assert_same_reply(sets, num_nodes, seed=0) == total

    def test_dense_first_pick_then_sparse_leftovers(self):
        rng = np.random.default_rng(4)
        num_nodes = 8
        sets = [sorted({0, *rng.integers(1, num_nodes, size=4).tolist()}) for _ in range(40)]
        sets += [[1, 2], [2], [5, 6, 7]]
        assert assert_same_reply(sets, num_nodes, seed=0) >= 2 * num_nodes
        assert assert_same_reply(sets, num_nodes, seed=2, already_covered=range(40)) < 2 * num_nodes

    def test_empty_replies(self):
        sets = [[1, 2], [2, 3], []]
        assert_same_reply(sets, 5, seed=4)  # in no set
        assert_same_reply(sets, 5, seed=2, already_covered=[0, 1])  # nothing fresh
        flat, _ = stores_of(sets, 5)
        nodes, decs, newly = sparse_decrements(flat, 7, np.zeros(3, dtype=bool))  # out of range
        assert (nodes.size, decs.size, newly) == (0, 0, 0)

    @settings(max_examples=120, deadline=None)
    @given(
        num_nodes=st.integers(2, 9),
        data=st.data(),
    )
    def test_random_stores_match_unique_and_the_reference(self, num_nodes, data):
        sets = data.draw(
            st.lists(
                st.lists(st.integers(0, num_nodes - 1), min_size=0, max_size=num_nodes, unique=True).map(sorted),
                min_size=1,
                max_size=30,
            )
        )
        covered = data.draw(st.sets(st.integers(0, len(sets) - 1), max_size=len(sets) // 2))
        seed = data.draw(st.integers(0, num_nodes - 1))
        assert_same_reply(sets, num_nodes, seed, covered)


class TestResolvedArrays:
    def build(self):
        rng = np.random.default_rng(6)
        flat = FlatRRCollection(12)
        for _ in range(50):
            nodes = np.unique(rng.integers(0, 12, size=int(rng.integers(1, 6)))).astype(np.int32)
            flat.add(RRSample(nodes=nodes, root=int(nodes[0]), edges_examined=1))
        return flat

    @pytest.mark.parametrize("limit", [0, 17, 50])
    def test_a_prefix_view_and_its_arrays_answer_alike(self, limit):
        flat = self.build()
        view = FlatPrefixView(flat, limit)
        arrays = FlatArrays(view)
        assert (arrays.num_sets, arrays.num_nodes) == (limit, 12)
        np.testing.assert_array_equal(arrays.coverage_counts(), view.coverage_counts())
        for node in range(-1, 13):
            np.testing.assert_array_equal(arrays.sets_containing(node), view.sets_containing(node))
        for seed in (3, 7):
            via_view, via_arrays = np.zeros(limit, dtype=bool), np.zeros(limit, dtype=bool)
            a = sparse_decrements(view, seed, via_view)
            b = sparse_decrements(arrays, seed, via_arrays)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
            assert a[2] == b[2]
            np.testing.assert_array_equal(via_view, via_arrays)

    def test_mark_and_decrement_is_the_sparse_reply_applied(self):
        flat = self.build()
        counts = flat.coverage_counts()
        expected = counts.copy()
        covered, shadow = np.zeros(50, dtype=bool), np.zeros(50, dtype=bool)
        for seed in (5, 0, 5, 11):
            nodes, decs, newly = sparse_decrements(flat, seed, shadow)
            expected[nodes] -= decs
            assert mark_and_decrement(FlatArrays(flat), seed, covered, counts) == newly
            np.testing.assert_array_equal(counts, expected)
            np.testing.assert_array_equal(covered, shadow)
