"""Unit tests for the coverage-instance builders of ``repro.coverage.problem``."""

import numpy as np
import pytest

from repro.coverage import from_elements, from_graph, split_elements
from repro.graphs import GraphBuilder, paper_coverage_example
from repro.ris import FlatRRCollection


@pytest.fixture
def instance(paper_instance):
    return paper_instance


class TestConstruction:
    def test_counts(self, instance):
        assert instance.num_nodes == 5
        assert instance.num_sets == 6
        assert len(instance) == 6

    def test_total_size(self, instance):
        assert instance.total_size == 12

    def test_duplicate_members_collapsed(self):
        inst = from_elements(3, [[1, 1, 2]])
        assert inst.get(0).tolist() == [1, 2]

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="member ids"):
            from_elements(2, [[5]])

    def test_invalid_universe_rejected(self):
        with pytest.raises(ValueError):
            from_elements(0, [])

    def test_empty_element_allowed(self):
        inst = from_elements(3, [[]])
        assert inst.num_sets == 1
        assert inst.get(0).size == 0


class TestQueries:
    def test_sets_containing(self, instance):
        assert instance.sets_containing(0).tolist() == [0, 2, 4]  # v1 covers R1, R3, R5

    def test_coverage_counts(self, instance):
        counts = instance.coverage_counts()
        assert counts[0] == 3  # v1
        assert counts[1] == 4  # v2

    def test_coverage_counts_start(self, instance):
        counts = instance.coverage_counts(start=4)
        assert counts.sum() == 4

    def test_coverage_of(self, instance):
        assert instance.coverage_of([0, 1]) == 6  # {v1, v2} covers all
        assert instance.coverage_of([0, 3]) == 4  # {v1, v4}: R1, R3, R5, R6

    def test_repr(self, instance):
        assert isinstance(instance, FlatRRCollection)
        assert "num_sets=6" in repr(instance)


class TestFromGraph:
    def test_neighborhood_sets(self):
        graph = GraphBuilder.from_edges([(0, 1), (0, 2), (1, 2)], num_nodes=3)
        inst = from_graph(graph)
        # Element v lists v's in-neighbors.
        assert inst.get(1).tolist() == [0]
        assert inst.get(2).tolist() == [0, 1]
        assert inst.get(0).size == 0
        # Set u covers u's out-neighbors.
        assert inst.sets_containing(0).tolist() == [1, 2]

    def test_include_self(self):
        graph = GraphBuilder.from_edges([(0, 1)], num_nodes=2)
        inst = from_graph(graph, include_self=True)
        assert inst.coverage_of([0]) == 2

    def test_total_size_equals_edges(self):
        graph = GraphBuilder.from_edges([(0, 1), (0, 2), (1, 2)], num_nodes=3)
        assert from_graph(graph).total_size == 3

    @pytest.mark.parametrize("include_self", [False, True])
    def test_rows_are_sorted_unique_in_neighbors(self, small_wc_graph, include_self):
        inst = from_graph(small_wc_graph, include_self=include_self)
        assert inst.num_sets == inst.num_nodes == small_wc_graph.num_nodes
        for v in range(small_wc_graph.num_nodes):
            members = set(small_wc_graph.in_neighbors(v).tolist())
            if include_self:
                members.add(v)
            assert inst.get(v).tolist() == sorted(members)


class TestSplit:
    def test_round_robin_partition(self, instance):
        parts = split_elements(instance, 3)
        assert [p.num_sets for p in parts] == [2, 2, 2]

    def test_random_partition_preserves_elements(self, instance):
        parts = split_elements(instance, 4, rng=np.random.default_rng(0))
        assert sum(p.num_sets for p in parts) == 6
        assert sum(p.total_size for p in parts) == instance.total_size

    def test_single_part_is_whole(self, instance):
        (part,) = split_elements(instance, 1)
        assert part.num_sets == instance.num_sets

    def test_invalid_parts(self, instance):
        with pytest.raises(ValueError):
            split_elements(instance, 0)

    def test_subinstance_reindexes(self, instance):
        """A part holds its elements in order, re-indexed from 0: round-robin
        over 3 parts gives the last part elements 2 and 5."""
        sub = split_elements(instance, 3)[2]
        assert sub.num_sets == 2
        assert sub.get(0).tolist() == sorted(paper_coverage_example()[2])
        assert sub.get(1).tolist() == sorted(paper_coverage_example()[5])
        assert sub.sets_containing(0).tolist() == [0]  # v1 covers R3 here
        assert sub.sets_containing(1).tolist() == [1]  # v2 covers R6 here

    def test_random_split_uses_the_drawn_assignment(self, instance):
        assignment = np.random.default_rng(3).integers(0, 4, size=instance.num_sets)
        parts = split_elements(instance, 4, rng=np.random.default_rng(3))
        for part, piece in enumerate(parts):
            rows = np.flatnonzero(assignment == part)
            assert [piece.get(j).tolist() for j in range(piece.num_sets)] == [
                instance.get(int(r)).tolist() for r in rows
            ]


class TestEdgeCases:
    """Coverage gaps: empty collections and degenerate reads."""

    def test_instance_with_no_elements(self):
        empty = from_elements(4, [])
        assert empty.num_sets == 0 and len(empty) == 0
        assert empty.total_size == 0
        assert empty.coverage_of([0, 1, 2, 3]) == 0
        assert empty.coverage_counts().tolist() == [0, 0, 0, 0]
        assert empty.sets_containing(2).size == 0
        with pytest.raises(IndexError):
            empty.get(0)

    def test_split_of_empty_instance(self):
        parts = split_elements(from_elements(4, []), 3)
        assert [p.num_sets for p in parts] == [0, 0, 0]

    def test_coverage_of_empty_and_duplicate_seed_sets(self, instance):
        assert instance.coverage_of([]) == 0
        assert instance.coverage_of([1, 1, 1]) == instance.coverage_of([1])

    def test_coverage_counts_start_past_end(self, instance):
        assert instance.coverage_counts(start=instance.num_sets).sum() == 0

    def test_subinstance_of_nothing(self, instance):
        """More parts than elements: the surplus part is empty, over the
        same universe."""
        sub = split_elements(instance, 7)[6]
        assert sub.num_sets == 0 and sub.num_nodes == instance.num_nodes
