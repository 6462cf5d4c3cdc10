"""VersionedGraph / GraphDelta: update semantics, compaction, sharing."""

import numpy as np
import pytest

from repro.graphs import (
    DirectedGraph,
    GraphDelta,
    VersionedGraph,
    erdos_renyi,
    weighted_cascade,
)


def versioned(graph) -> VersionedGraph:
    return VersionedGraph(DirectedGraph(graph.num_nodes, *graph.edge_arrays()))


def rebuilt(graph) -> DirectedGraph:
    """``graph`` through the DirectedGraph constructor, its edges listed in
    in-row order: the constructor's stable sort reproduces every in-row."""
    targets = np.repeat(np.arange(graph.num_nodes), graph.in_degrees())
    return DirectedGraph(graph.num_nodes, graph.in_indices, targets, graph.in_probs)


def in_rows_equal(a, b) -> bool:
    """Exact in-row equality: order matters (the samplers' traversal order)."""
    if a.num_nodes != b.num_nodes:
        return False
    for v in range(a.num_nodes):
        if not np.array_equal(a.in_neighbors(v), b.in_neighbors(v)):
            return False
        if not np.array_equal(a.in_probabilities(v), b.in_probabilities(v)):
            return False
    return True


FIELDS = ("out_indptr", "out_indices", "out_probs", "in_indptr", "in_indices", "in_probs")


def edge_triples(graph):
    """Semantic (order-insensitive) edge identity."""
    return sorted((u, v, round(p, 12)) for u, v, p in graph.edges())


class TestGraphDelta:
    def test_counts_and_empty(self):
        assert GraphDelta().is_empty
        delta = GraphDelta(add_edges=[(0, 1, 0.5)], remove_nodes=[2], add_nodes=3)
        assert not delta.is_empty
        assert delta.num_changes == 5

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            GraphDelta(add_edges=[(0, 1, 1.5)])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            GraphDelta(remove_edges=[(-1, 0)])

    def test_json_round_trip(self):
        delta = GraphDelta(
            add_edges=[(0, 1, 0.5), (2, 3, 0.25)],
            remove_edges=[(4, 5)],
            reweight_edges=[(6, 7, 0.75)],
            remove_nodes=[8],
            add_nodes=2,
        )
        clone = GraphDelta.from_json(delta.to_json())
        assert clone.to_json() == delta.to_json()
        assert clone.num_changes == delta.num_changes

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            GraphDelta.from_json({"add_edgez": []})


class TestApply:
    def test_mixed_delta_matches_direct_construction(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        edges = [(u, v) for u, v, _ in small_wc_graph.edges()]
        delta = GraphDelta(
            add_edges=[(0, 1, 0.5), (10, 11, 0.125)],
            remove_edges=edges[:3],
            reweight_edges=[(edges[5][0], edges[5][1], 0.9)],
        )
        before_edges = graph.num_edges
        touched = graph.apply(delta)
        assert graph.version == 1
        assert graph.num_edges == before_edges + 2 - 3
        # Touched = ascending in-row owners of every change.
        assert touched is not None
        assert np.all(np.diff(touched) > 0)
        owners = {1, 11, edges[5][1]} | {v for _, v in edges[:3]}
        assert set(int(t) for t in touched) == owners
        # The updated structure equals a graph built from the new edges.
        direct = rebuilt(graph)
        assert in_rows_equal(graph, direct)
        assert edge_triples(graph) == edge_triples(direct)
        assert edge_triples(DirectedGraph(graph.num_nodes, *graph.edge_arrays())) == (
            edge_triples(direct)
        )

    def test_remove_node_isolates(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        victim = int(max(range(graph.num_nodes), key=graph.out_degree))
        touched = graph.apply(GraphDelta(remove_nodes=[victim]))
        assert graph.num_nodes == small_wc_graph.num_nodes  # id kept
        assert graph.in_degree(victim) == 0
        assert graph.out_degree(victim) == 0
        assert victim in set(int(t) for t in touched)

    def test_add_nodes_forces_full_invalidation(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        n = graph.num_nodes
        touched = graph.apply(GraphDelta(add_nodes=2, add_edges=[(n, 0, 0.5)]))
        assert touched is None
        assert graph.num_nodes == n + 2
        assert graph.edge_probability(n, 0) == 0.5

    def test_remove_absent_edge_raises(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        missing = next(
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(graph.num_nodes)
            if u != v and not graph.has_edge(u, v)
        )
        with pytest.raises(ValueError, match="not in graph"):
            graph.apply(GraphDelta(remove_edges=[missing]))
        # A failed apply must not bump the version.
        assert graph.version == 0

    def test_reweight_absent_edge_raises(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        with pytest.raises(ValueError, match="not in graph"):
            graph.apply(GraphDelta(reweight_edges=[(0, 0, 0.5)]))

    def test_out_of_range_ids_raise(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        with pytest.raises(ValueError):
            graph.apply(GraphDelta(add_edges=[(graph.num_nodes, 0, 0.5)]))

    def test_accessor_parity_with_compacted(self, small_wc_graph, rng):
        graph = versioned(small_wc_graph)
        edges = [(u, v) for u, v, _ in small_wc_graph.edges()]
        graph.apply(
            GraphDelta(
                add_edges=[(2, 4, 0.3)],
                remove_edges=edges[10:14],
                remove_nodes=[7],
            )
        )
        compacted = rebuilt(graph)
        assert graph.num_edges == compacted.num_edges
        assert np.array_equal(graph.in_degrees(), compacted.in_degrees())
        assert np.array_equal(graph.out_degrees(), compacted.out_degrees())
        assert np.allclose(
            graph.in_probability_sums(), compacted.in_probability_sums()
        )
        for v in rng.integers(0, graph.num_nodes, size=25):
            v = int(v)
            assert np.array_equal(graph.in_neighbors(v), compacted.in_neighbors(v))
            assert np.array_equal(
                graph.in_probabilities(v), compacted.in_probabilities(v)
            )
            assert sorted(graph.out_neighbors(v)) == sorted(compacted.out_neighbors(v))

    def test_parallel_edge_removal_drops_all(self):
        base = DirectedGraph(
            3,
            np.array([0, 0, 1]),
            np.array([1, 1, 2]),
            np.array([0.2, 0.3, 0.4]),
        )
        graph = VersionedGraph(base)
        graph.apply(GraphDelta(remove_edges=[(0, 1)]))
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 1

    def test_node_removal_drops_edges_the_same_delta_adds(self):
        graph = VersionedGraph(DirectedGraph(4, [0, 1, 2], [1, 2, 3], [0.5] * 3))
        touched = graph.apply(
            GraphDelta(remove_nodes=[0], add_edges=[(0, 3, 0.4), (2, 0, 0.3)])
        )
        direct = DirectedGraph(4, [1, 2], [2, 3], [0.5, 0.5])
        assert graph.num_edges == direct.num_edges == 2
        assert graph.in_degrees().sum() == graph.out_degrees().sum() == 2
        assert in_rows_equal(graph, direct)
        for u in range(4):
            assert sorted(graph.out_neighbors(u)) == sorted(direct.out_neighbors(u))
        assert graph.out_neighbors(0).size == graph.in_neighbors(0).size == 0
        assert list(touched) == [0, 1]

    def test_refused_candidate_changes_nothing(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        held = [getattr(graph, field) for field in FIELDS]

        def refuse(candidate):
            assert candidate.num_edges == graph.num_edges + 1
            raise ValueError("refused")

        with pytest.raises(ValueError, match="refused"):
            graph.apply(GraphDelta(add_edges=[(0, 1, 0.5)]), validate=refuse)
        assert graph.version == 0
        assert all(getattr(graph, field) is a for field, a in zip(FIELDS, held))

    def test_update_never_writes_an_existing_array(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        before = {field: getattr(graph, field).copy() for field in FIELDS}
        held = {field: getattr(graph, field) for field in FIELDS}
        edges = [(u, v) for u, v, _ in small_wc_graph.edges()]
        graph.apply(GraphDelta(remove_edges=edges[:5], add_edges=[(3, 9, 0.2)], add_nodes=2))
        for field in FIELDS:
            assert np.array_equal(held[field], before[field])
        assert graph.in_indptr.size == small_wc_graph.num_nodes + 3


class TestCompactAndRebase:
    def test_identity_compaction(self, small_wc_graph):
        graph = versioned(small_wc_graph)
        assert in_rows_equal(graph.compact(), small_wc_graph)


class TestSharedMemory:
    def test_round_trip_preserves_overlay(self, small_wc_graph):
        # An updated graph exports its current arrays; workers attach a
        # plain graph holding the update.
        graph = versioned(small_wc_graph)
        edges = [(u, v) for u, v, _ in small_wc_graph.edges()]
        graph.apply(GraphDelta(remove_edges=edges[:3], add_edges=[(0, 2, 0.7)]))
        handle = graph.to_shared()
        try:
            attached = DirectedGraph.from_shared(handle.spec)
            assert type(attached) is DirectedGraph
            assert attached.num_edges == graph.num_edges
            assert in_rows_equal(attached, graph)
            del attached
        finally:
            handle.unlink()

    def test_plain_graph_spec_still_attaches(self, small_wc_graph):
        handle = small_wc_graph.to_shared()
        try:
            attached = DirectedGraph.from_shared(handle.spec)
            assert attached.num_edges == small_wc_graph.num_edges
            del attached
        finally:
            handle.unlink()


class TestPerSetStreams:
    def test_wrapping_preserves_base_identity(self):
        base = weighted_cascade(erdos_renyi(50, 200, np.random.default_rng(0)))
        graph = VersionedGraph(base)
        # Wrapping copies nothing: the first update splices fresh arrays.
        assert graph.in_indices is base.in_indices and graph.out_probs is base.out_probs
        assert isinstance(graph, DirectedGraph) and graph == base
        with pytest.raises(TypeError):
            VersionedGraph(graph)
