"""Unit tests for the oracle's dict-indexed store, RRCollection."""

import numpy as np
import pytest

from repro.ris.rrset import RRSample
from tests.oracle import RRCollection


def make_sample(nodes, root=None, edges=0):
    arr = np.unique(np.asarray(nodes, dtype=np.int32))
    return RRSample(nodes=arr, root=root if root is not None else int(arr[0]), edges_examined=edges)


@pytest.fixture
def collection():
    coll = RRCollection(num_nodes=5)
    coll.add(make_sample([0, 1], edges=3))
    coll.add(make_sample([1, 2], edges=2))
    coll.add(make_sample([0, 3, 4], edges=7))
    return coll


class TestMutation:
    def test_add_returns_index(self):
        coll = RRCollection(3)
        assert coll.add(make_sample([0])) == 0
        assert coll.add(make_sample([1])) == 1

    def test_extend(self, collection):
        collection.extend([make_sample([2]), make_sample([4])])
        assert collection.num_sets == 5

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            RRCollection(0)

    def test_add_rejects_out_of_range_ids(self):
        """Regression: ids >= num_nodes used to be silently accepted and
        then crash coverage_counts' bincount much later."""
        coll = RRCollection(3)
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            coll.add(make_sample([1, 3]))
        with pytest.raises(ValueError, match="outside"):
            coll.add(
                RRSample(nodes=np.asarray([-1], dtype=np.int32), root=0, edges_examined=0)
            )
        assert coll.num_sets == 0


class TestAccounting:
    def test_num_sets(self, collection):
        assert collection.num_sets == 3
        assert len(collection) == 3

    def test_total_size(self, collection):
        assert collection.total_size == 7

    def test_total_edges_examined(self, collection):
        assert collection.total_edges_examined == 12

    def test_get(self, collection):
        assert collection.get(1).tolist() == [1, 2]

    def test_iteration(self, collection):
        assert [s.tolist() for s in collection] == [[0, 1], [1, 2], [0, 3, 4]]


class TestInvertedIndex:
    def test_sets_containing(self, collection):
        assert collection.sets_containing(0) == [0, 2]
        assert collection.sets_containing(1) == [0, 1]
        assert collection.sets_containing(4) == [2]

    def test_missing_node_empty(self, collection):
        assert collection.sets_containing(2) == [1]
        coll = RRCollection(10)
        assert coll.sets_containing(9) == []

    def test_index_grows_with_extend(self, collection):
        collection.add(make_sample([0]))
        assert collection.sets_containing(0) == [0, 2, 3]


class TestCoverage:
    def test_coverage_counts(self, collection):
        counts = collection.coverage_counts()
        assert counts.tolist() == [2, 2, 1, 1, 1]

    def test_coverage_counts_from_start(self, collection):
        counts = collection.coverage_counts(start=2)
        assert counts.tolist() == [1, 0, 0, 1, 1]

    def test_coverage_of_single(self, collection):
        assert collection.coverage_of([0]) == 2

    def test_coverage_of_union(self, collection):
        assert collection.coverage_of([0, 1]) == 3

    def test_coverage_of_duplicates(self, collection):
        assert collection.coverage_of([0, 0]) == 2

    def test_coverage_of_empty(self, collection):
        assert collection.coverage_of([]) == 0

    def test_repr(self, collection):
        assert "num_sets=3" in repr(collection)
