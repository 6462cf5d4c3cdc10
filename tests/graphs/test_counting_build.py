"""Graph construction by counting passes equals the sorts it replaced.

Every CSR is ordered by :func:`repro.graphs.digraph._stable_order` (a
16-bit radix pass while ids fit 16 bits), the random generators
deduplicate by pair order, Chung-Lu draws through a bucketed inverse CDF
and a reweighted graph keeps its out-CSR.  Each is checked against the NumPy call it stands for, and the
four stand-ins against the digests of their arrays as the sort-based code
built them.
"""

import gc
import hashlib
import mmap

import numpy as np
import pytest

from repro.graphs import (
    DATASET_NAMES,
    DirectedGraph,
    GraphBuilder,
    GraphDelta,
    VersionedGraph,
    erdos_renyi,
    load_dataset,
    rmat,
    uniform,
    weighted_cascade,
)
from repro.graphs.digraph import _CSR_FIELDS, _stable_order
from repro.graphs.generators import _draw_from
from repro.ris import make_sampler
from repro.ris.rrset import sample_set_range

#: SHA-1 over the six CSR arrays (dtype string, then bytes, in
#: ``_CSR_FIELDS`` order) of each stand-in at seed 2022, recorded with the
#: sort-based construction (``np.argsort`` on int64, ``np.unique``,
#: ``Generator.choice`` and a rebuilding ``with_probabilities``).
STANDIN_DIGESTS = {
    "facebook": "e2a288d51f6ffe8cb02ec7049a2ec3ccd5857c31",
    "googleplus": "24bc0542f28751afaccb7b46d4405e8b82d34f44",
    "livejournal": "25c8b83d25f6f4f5055fcb03ed1a4daa6ee9f429",
    "twitter": "cad53e51b1826a172cf0114e0fe2bb5fe7959ef8",
}


def csr_digest(graph) -> str:
    sha = hashlib.sha1()
    for field in _CSR_FIELDS:
        array = getattr(graph, field)
        sha.update(array.dtype.str.encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def assert_same_csr(got, want):
    for field in _CSR_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


def reference_dedup(num_nodes, sources, targets):
    """The sort-based ``_dedup_random_edges``: ``np.unique`` on pair keys."""
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    keys = sources.astype(np.int64) * num_nodes + targets
    __, first = np.unique(keys, return_index=True)
    return DirectedGraph(num_nodes, sources[first], targets[first])


def reference_rmat(scale, edge_factor, rng, a=0.57, b=0.19, c=0.19):
    """The int64 bit loop ``rmat`` ran before it went in place."""
    num_edges = (1 << scale) * edge_factor
    sources = np.zeros(num_edges, dtype=np.int64)
    targets = np.zeros(num_edges, dtype=np.int64)
    for __ in range(scale):
        draws = rng.random(num_edges)
        top_right = (draws >= a) & (draws < a + b)
        sources = (sources << 1) | (draws >= a + b)
        targets = (targets << 1) | (top_right | (draws >= a + b + c))
    return reference_dedup(1 << scale, sources, targets)


class TestStandIns:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_csr_arrays_match_sort_based_build(self, name):
        assert csr_digest(load_dataset(name, seed=2022).graph) == STANDIN_DIGESTS[name]


class TestStableOrder:
    @pytest.mark.parametrize("bound", [1, 7, 1 << 16, (1 << 16) + 1, 1 << 20, 2**31 - 1])
    def test_equals_stable_argsort(self, bound):
        rng = np.random.default_rng(bound)
        for dtype in (np.int64, np.int32):
            keys = rng.integers(0, bound, size=5_000).astype(dtype)
            # Heavy repeats, so stability is what decides the order.
            keys[::3] = keys[0]
            np.testing.assert_array_equal(
                _stable_order(keys, bound), np.argsort(keys, kind="stable")
            )

    @pytest.mark.parametrize("bound", [10, 1 << 17])
    def test_all_equal_and_empty_keys(self, bound):
        same = np.full(1_000, bound - 1, dtype=np.int64)
        np.testing.assert_array_equal(_stable_order(same, bound), np.arange(1_000))
        assert _stable_order(np.zeros(0, dtype=np.int32), bound).size == 0


class TestGenerators:
    @pytest.mark.parametrize(
        "weights",
        [
            1.0 + np.random.default_rng(0).pareto(1.5, size=3_000),
            np.array([0.0, 3.0, 0.0, 0.0, 1.0, 0.0]),
            np.array([1.0]),
        ],
    )
    def test_draw_from_equals_generator_choice(self, weights):
        p = weights / weights.sum()
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        drawn = _draw_from(p, (20_000, 7), ours)
        expected = [theirs.choice(p.size, size, p=p) for size in (20_000, 7)]
        for got, want in zip(drawn, expected):
            np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("num_nodes", [300, 70_000])
    def test_dedup_keeps_first_pair_in_pair_order(self, num_nodes):
        got = erdos_renyi(num_nodes, 4 * num_nodes, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        sources = rng.integers(0, num_nodes, size=4 * num_nodes, dtype=np.int64)
        targets = rng.integers(0, num_nodes, size=4 * num_nodes, dtype=np.int64)
        assert_same_csr(got, reference_dedup(num_nodes, sources, targets))

    @pytest.mark.parametrize("scale", [6, 17])
    def test_rmat_equals_int64_bit_loop(self, scale):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert_same_csr(rmat(scale, 2, ours), reference_rmat(scale, 2, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("num_nodes", [50, 70_000])
    def test_builder_keep_last_equals_sorted_keys(self, num_nodes):
        rng = np.random.default_rng(2)
        edges = rng.integers(0, 40, size=(600, 2)) * (num_nodes // 40)
        probs = rng.random(600)
        builder = GraphBuilder(num_nodes=num_nodes)
        for (u, v), p in zip(edges.tolist(), probs):
            builder.add_edge(u, v, p)
        src, dst = edges[:, 0], edges[:, 1]
        keep = src != dst
        src, dst, prob = src[keep], dst[keep], probs[keep]
        keys = src * num_nodes + dst
        order = np.argsort(keys, kind="stable")
        last = np.append(keys[order][1:] != keys[order][:-1], True)
        chosen = order[last]
        want = DirectedGraph(num_nodes, src[chosen], dst[chosen], prob[chosen])
        assert_same_csr(builder.build(), want)


def rebuilt(graph, probs):
    """The rebuild ``with_probabilities`` used to run."""
    return DirectedGraph(graph.num_nodes, *graph.edge_arrays()[:2], probs)


class TestWithProbabilities:
    def test_unsorted_undeduplicated_graph(self):
        rng = np.random.default_rng(4)
        builder = GraphBuilder(num_nodes=60)
        for u, v in rng.integers(0, 60, size=(500, 2)).tolist():
            builder.add_edge(u, v)
        graph = builder.build(dedup=False)
        probs = rng.random(graph.num_edges)
        assert_same_csr(graph.with_probabilities(probs), rebuilt(graph, probs))

    def test_multi_edge_keep_last_graph(self):
        builder = GraphBuilder(num_nodes=5)
        for u, v, p in [(3, 1, 0.1), (0, 1, 0.2), (3, 1, 0.9), (2, 1, 0.3), (0, 1, 0.4)]:
            builder.add_edge(u, v, p)
        graph = builder.build()
        probs = np.array([0.5, 0.25, 0.125])
        assert_same_csr(graph.with_probabilities(probs), rebuilt(graph, probs))
        assert_same_csr(weighted_cascade(graph), rebuilt(graph, np.full(3, 1 / 3)))

    def test_updated_versioned_graph(self, small_wc_graph):
        """The out-CSR is the rebuild's; the in-rows keep their rank-stable
        order and carry the same edges."""
        graph = VersionedGraph(small_wc_graph)
        edges = [(u, v) for u, v, __ in small_wc_graph.edges()]
        graph.apply(GraphDelta(remove_edges=edges[:3], add_edges=[(7, edges[0][1], 0.5)]))
        probs = np.linspace(0.0, 1.0, graph.num_edges)
        got, want = graph.with_probabilities(probs), rebuilt(graph, probs)
        for field in ("out_indptr", "out_indices", "out_probs", "in_indptr"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.in_indices is graph.in_indices
        rows = np.repeat(np.arange(graph.num_nodes), np.diff(got.in_indptr))
        assert sorted(zip(got.in_indices.tolist(), rows.tolist(), got.in_probs.tolist())) == (
            sorted(got.edges())
        )

    def test_noop_reweight_of_updated_graph_draws_the_same_sets(self):
        graph = VersionedGraph(weighted_cascade(erdos_renyi(200, 2000, np.random.default_rng(3))))
        v = int(np.argmax(graph.in_degrees()))
        graph.apply(GraphDelta(remove_edges=[(int(graph.in_neighbors(v)[0]), v)]))
        copy = graph.with_probabilities(graph.out_probs)
        for field in ("in_indices", "in_probs"):
            np.testing.assert_array_equal(getattr(copy, field), getattr(graph, field))
        live, reweighted = (
            sample_set_range(make_sampler(g, "ic"), 11, 0, range(2_000)) for g in (graph, copy)
        )
        for got, want in zip(reweighted, live):
            np.testing.assert_array_equal(got, want)

    def test_refuses_bad_probabilities(self, small_wc_graph):
        with pytest.raises(ValueError, match="same length"):
            small_wc_graph.with_probabilities(np.zeros(3))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            small_wc_graph.with_probabilities(np.full(small_wc_graph.num_edges, 1.5))

    def test_reweighted_copy_of_attached_graph_holds_its_mapping(self, small_wc_graph):
        with small_wc_graph.to_shared() as handle:
            attached = DirectedGraph.from_shared(handle.spec)
            reweighted = uniform(attached, 0.25)
            del attached
            gc.collect()
            assert reweighted._shm is not None
            assert_same_csr(reweighted, uniform(small_wc_graph, 0.25))
            del reweighted
            gc.collect()


class TestKeptArrays:
    def test_large_arrays_live_in_mappings_of_their_own(self):
        graph = erdos_renyi(20_000, 200_000, np.random.default_rng(6))
        weighted = weighted_cascade(graph)
        reweighted = ("out_probs", "in_indices", "in_probs")
        for g, fields in ((graph, _CSR_FIELDS), (weighted, reweighted)):
            for field in fields:
                array = getattr(g, field)
                mapped = isinstance(getattr(array.base, "obj", None), mmap.mmap)
                assert mapped == (array.nbytes >= 1 << 20), field
        assert_same_csr(weighted, rebuilt(graph, weighted.out_probs))
