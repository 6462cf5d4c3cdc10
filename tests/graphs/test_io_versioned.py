"""IO / interop round-trips through VersionedGraph (load -> delta -> save)."""

import numpy as np
import pytest

from repro.graphs import (
    DirectedGraph,
    GraphDelta,
    VersionedGraph,
    erdos_renyi,
    from_networkx,
    load_npz,
    read_edge_list,
    save_npz,
    to_networkx,
    weighted_cascade,
    write_edge_list,
)
from repro.graphs.digraph import _CSR_FIELDS
from repro.ris import make_sampler
from repro.ris.rrset import sample_set_range


def edge_triples(graph):
    return sorted((u, v, round(p, 9)) for u, v, p in graph.edges())


@pytest.fixture
def delta(small_wc_graph):
    edges = [(u, v) for u, v, _ in small_wc_graph.edges()]
    return GraphDelta(
        add_edges=[(0, 3, 0.5), (9, 1, 0.25)],
        remove_edges=edges[:4],
        reweight_edges=[(edges[6][0], edges[6][1], 0.75)],
    )


@pytest.fixture
def updated(small_wc_graph, delta):
    graph = VersionedGraph(
        DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
    )
    graph.apply(delta)
    return graph


class TestNpzRoundTrip:
    def test_save_compacted_equals_direct(self, updated, tmp_path):
        path = tmp_path / "updated.npz"
        save_npz(updated.compact(), path)
        loaded = load_npz(path)
        assert loaded.num_nodes == updated.num_nodes
        assert loaded.num_edges == updated.num_edges
        assert edge_triples(loaded) == edge_triples(updated)

    def test_load_apply_save_load(self, small_wc_graph, delta, tmp_path):
        # load -> wrap -> delta -> compact -> save must equal building the
        # updated graph directly from its edge arrays.
        base_path = tmp_path / "base.npz"
        save_npz(small_wc_graph, base_path)
        graph = VersionedGraph(load_npz(base_path))
        graph.apply(delta)
        out_path = tmp_path / "out.npz"
        save_npz(graph.compact(), out_path)
        direct = DirectedGraph(graph.num_nodes, *graph.edge_arrays())
        assert edge_triples(load_npz(out_path)) == edge_triples(direct)


class TestNpzKeepsRowOrder:
    @pytest.fixture
    def reordered(self):
        """An updated graph whose in-row is not source-sorted: a removal
        and an insert on one row put the new source in the removed slot."""
        graph = VersionedGraph(weighted_cascade(erdos_renyi(200, 1200, np.random.default_rng(3))))
        v = int(np.argmax(graph.in_degrees()))
        row = graph.in_neighbors(v)
        new_source = next(u for u in range(graph.num_nodes) if u != v and u not in row)
        prob = float(graph.in_probabilities(v)[1])  # in-sums stay 1 for LT
        graph.apply(
            GraphDelta(remove_edges=[(int(row[1]), v)], add_edges=[(new_source, v, prob)])
        )
        assert np.any(np.diff(graph.in_neighbors(v)) < 0)
        return graph

    def test_round_trip_keeps_all_six_arrays(self, reordered, tmp_path):
        path = tmp_path / "updated.npz"
        save_npz(reordered, path)
        loaded = load_npz(path)
        for field in _CSR_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, field), getattr(reordered, field))

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_round_trip_draws_the_same_rr_sets(self, reordered, tmp_path, model):
        path = tmp_path / "updated.npz"
        save_npz(reordered, path)
        live, loaded = (
            sample_set_range(make_sampler(g, model), 11, 0, range(3_000))
            for g in (reordered, load_npz(path))
        )
        for got, want in zip(loaded, live):
            np.testing.assert_array_equal(got, want)

    def test_edge_list_layout_still_loads(self, small_wc_graph, tmp_path):
        path = tmp_path / "old.npz"
        sources, targets, probs = small_wc_graph.edge_arrays()
        np.savez_compressed(
            path,
            num_nodes=np.int64(small_wc_graph.num_nodes),
            sources=sources,
            targets=targets,
            probs=probs,
        )
        loaded = load_npz(path)
        for field in _CSR_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, field), getattr(small_wc_graph, field))

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("out_indptr", lambda a: a[:-1]),
            ("in_indptr", lambda a: a[::-1]),
            ("out_indices", lambda a: np.where(a == a[0], 10**6, a)),
            ("in_probs", lambda a: a + 2.0),
            ("in_indices", lambda a: np.r_[a[:-1], (a[-1] + 1) % 200]),
            ("out_probs", lambda a: a[:, None]),
        ],
    )
    def test_corrupt_arrays_are_refused(self, small_wc_graph, tmp_path, field, corrupt):
        arrays = {f: getattr(small_wc_graph, f) for f in _CSR_FIELDS}
        arrays[field] = corrupt(arrays[field])
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, num_nodes=np.int64(small_wc_graph.num_nodes), **arrays)
        with pytest.raises(ValueError):
            load_npz(path)


    @pytest.fixture
    def varied(self, small_wc_graph):
        """The fixture graph with a distinct probability on every edge."""
        rng = np.random.default_rng(0)
        return small_wc_graph.with_probabilities(rng.random(small_wc_graph.num_edges))

    @staticmethod
    def swap_sources_across_rows(arrays):
        indices, indptr = arrays["in_indices"].copy(), arrays["in_indptr"]
        row = int(np.flatnonzero(np.diff(indptr))[0])
        i = int(indptr[row])
        later = np.arange(indptr[row + 1], indices.size)
        j = int(later[indices[later] != indices[i]][0])
        indices[[i, j]] = indices[[j, i]]
        arrays["in_indices"] = indices

    @staticmethod
    def permute_probs_within_a_row(arrays):
        probs, indptr = arrays["in_probs"].copy(), arrays["in_indptr"]
        v = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        probs[lo:hi] = probs[lo:hi][::-1]
        arrays["in_probs"] = probs

    @pytest.mark.parametrize("corrupt", ["swap_sources_across_rows", "permute_probs_within_a_row"])
    def test_directions_that_disagree_are_refused(self, varied, tmp_path, corrupt):
        arrays = {f: getattr(varied, f) for f in _CSR_FIELDS}
        getattr(self, corrupt)(arrays)
        for side in ("out", "in"):  # every shape, range and degree count still holds
            degrees = np.bincount(arrays[f"{side}_indices"], minlength=varied.num_nodes)
            other = "in" if side == "out" else "out"
            np.testing.assert_array_equal(degrees, np.diff(arrays[f"{other}_indptr"]))
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, num_nodes=np.int64(varied.num_nodes), **arrays)
        with pytest.raises(ValueError, match="same"):
            load_npz(path)

    def test_multi_edges_in_any_row_order_load(self, tmp_path):
        """Repeated pairs with other probabilities, listed in one order in
        the out-row and the other in the in-row, are the same edges."""
        graph = DirectedGraph(
            3, [0, 0, 0, 1], [2, 2, 1, 2], np.array([0.25, 0.75, 0.5, 0.125])
        )
        arrays = {f: getattr(graph, f) for f in _CSR_FIELDS}
        arrays["in_indices"] = graph.in_indices[[0, 3, 2, 1]]
        arrays["in_probs"] = graph.in_probs[[0, 3, 2, 1]]
        assert arrays["in_indptr"].tolist() == [0, 0, 1, 4]
        path = tmp_path / "multi.npz"
        np.savez_compressed(path, num_nodes=np.int64(3), **arrays)
        loaded = load_npz(path)
        for field in _CSR_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, field), arrays[field])


class TestEdgeListRoundTrip:
    def test_write_read_versioned(self, updated, tmp_path):
        path = tmp_path / "updated.txt"
        write_edge_list(updated.compact(), path)
        loaded = read_edge_list(path, num_nodes=updated.num_nodes)
        assert loaded.num_edges == updated.num_edges
        assert edge_triples(loaded) == edge_triples(updated)

    def test_write_accepts_versioned_directly(self, updated, tmp_path):
        # write_edge_list only needs .edges()/num_nodes/num_edges, which
        # the overlay view serves without compacting first.
        path = tmp_path / "overlay.txt"
        write_edge_list(updated, path)
        loaded = read_edge_list(path, num_nodes=updated.num_nodes)
        assert edge_triples(loaded) == edge_triples(updated)


class TestNetworkxRoundTrip:
    def test_interop_through_versioned(self, updated):
        rebuilt = from_networkx(to_networkx(updated.compact()))
        assert rebuilt.num_nodes == updated.num_nodes
        assert edge_triples(rebuilt) == edge_triples(updated)

    def test_grown_graph_round_trip(self, small_wc_graph, tmp_path):
        graph = VersionedGraph(
            DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
        )
        n = graph.num_nodes
        graph.apply(GraphDelta(add_nodes=3, add_edges=[(n, 0, 0.5), (n + 1, n, 0.5)]))
        path = tmp_path / "grown.npz"
        save_npz(graph.compact(), path)
        loaded = load_npz(path)
        assert loaded.num_nodes == n + 3
        assert edge_triples(loaded) == edge_triples(graph)
