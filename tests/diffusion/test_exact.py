"""Unit tests for exact spread enumeration and brute-force optima."""

import itertools

import pytest

from repro.diffusion import (
    IndependentCascade,
    LinearThreshold,
    estimate_spread,
    exact_optimum,
    exact_spread_ic,
    exact_spread_lt,
)
from repro.graphs import (
    GraphBuilder,
    erdos_renyi,
    paper_example_graph,
    path_graph,
    uniform,
    weighted_cascade,
)
from tests.oracle import (
    reference_exact_optimum,
    reference_exact_spread_ic,
    reference_exact_spread_lt,
)

import numpy as np


class TestExactIC:
    def test_single_edge(self):
        graph = GraphBuilder.from_edges([(0, 1, 0.3)], num_nodes=2)
        assert exact_spread_ic(graph, [0]) == pytest.approx(1.3)

    def test_deterministic_diamond(self, diamond_graph):
        assert exact_spread_ic(diamond_graph, [0]) == pytest.approx(4.0)

    def test_two_hop_chain(self):
        graph = GraphBuilder.from_edges([(0, 1, 0.5), (1, 2, 0.5)], num_nodes=3)
        # sigma = 1 + 0.5 + 0.25.
        assert exact_spread_ic(graph, [0]) == pytest.approx(1.75)

    def test_all_seeds(self, diamond_graph):
        assert exact_spread_ic(diamond_graph, range(4)) == pytest.approx(4.0)

    def test_refuses_large_graphs(self, rng):
        graph = erdos_renyi(30, 100, rng)
        with pytest.raises(ValueError, match="enumeration limited"):
            exact_spread_ic(graph, [0])

    def test_matches_monte_carlo(self, rng):
        graph = weighted_cascade(erdos_renyi(8, 14, np.random.default_rng(2)))
        exact = exact_spread_ic(graph, [0, 1])
        mc = estimate_spread(graph, [0, 1], IndependentCascade(), 40000, rng)
        assert mc.mean == pytest.approx(exact, abs=0.06)


class TestExactLT:
    def test_single_edge(self):
        graph = GraphBuilder.from_edges([(0, 1, 0.3)], num_nodes=2)
        assert exact_spread_lt(graph, [0]) == pytest.approx(1.3)

    def test_matches_monte_carlo(self, rng):
        graph = weighted_cascade(erdos_renyi(8, 14, np.random.default_rng(2)))
        exact = exact_spread_lt(graph, [0, 1])
        mc = estimate_spread(graph, [0, 1], LinearThreshold(), 40000, rng)
        assert mc.mean == pytest.approx(exact, abs=0.06)

    def test_ic_lt_agree_on_single_in_edges(self):
        # When every node has at most one in-edge the two models coincide.
        graph = GraphBuilder.from_edges([(0, 1, 0.5), (1, 2, 0.4)], num_nodes=3)
        assert exact_spread_ic(graph, [0]) == pytest.approx(exact_spread_lt(graph, [0]))

    def test_infeasible_rejected(self):
        graph = GraphBuilder.from_edges([(0, 2, 0.9), (1, 2, 0.9)], num_nodes=3)
        with pytest.raises(ValueError):
            exact_spread_lt(graph, [0])


class TestExactOptimum:
    def test_path_optimum_is_source(self):
        graph = uniform(path_graph(4), 1.0)
        seeds, value = exact_optimum(graph, 1)
        assert seeds == (0,)
        assert value == pytest.approx(4.0)

    def test_k2_on_paper_graph(self, paper_graph):
        seeds, value = exact_optimum(paper_graph, 2, model="ic")
        assert 0 in seeds
        assert value > exact_spread_ic(paper_graph, [0])

    def test_candidates_restriction(self, paper_graph):
        seeds, __ = exact_optimum(paper_graph, 1, candidates=[2, 3])
        assert seeds[0] in (2, 3)

    def test_k_exceeding_pool(self, paper_graph):
        seeds, value = exact_optimum(paper_graph, 10)
        assert len(seeds) == 4
        assert value == pytest.approx(4.0)

    def test_invalid_k(self, paper_graph):
        with pytest.raises(ValueError):
            exact_optimum(paper_graph, 0)


def small_graphs():
    """Example 1 plus random weighted-cascade graphs with at most 10 edges,
    some with untouched (isolated) nodes."""
    yield "example-1", paper_example_graph()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 11))
        yield f"er-{seed}", weighted_cascade(erdos_renyi(n, m, rng))
    yield "chain", GraphBuilder.from_edges([(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.25)], num_nodes=6)


SMALL_GRAPHS = dict(small_graphs())


class TestAgainstReference:
    """The vectorized world enumeration equals the per-world loops."""

    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize(
        ("exact", "reference"),
        [
            (exact_spread_ic, reference_exact_spread_ic),
            (exact_spread_lt, reference_exact_spread_lt),
        ],
        ids=["ic", "lt"],
    )
    def test_spread_of_every_small_seed_set(self, name, exact, reference):
        graph = SMALL_GRAPHS[name]
        nodes = range(graph.num_nodes)
        for size in (1, 2, graph.num_nodes):
            for seeds in itertools.islice(itertools.combinations(nodes, size), 12):
                assert exact(graph, seeds) == pytest.approx(reference(graph, seeds), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize("model", ["ic", "lt"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_optimum(self, name, model, k):
        graph = SMALL_GRAPHS[name]
        seeds, value = exact_optimum(graph, k, model=model)
        ref_seeds, ref_value = reference_exact_optimum(graph, k, model=model)
        assert value == pytest.approx(ref_value, abs=1e-12)
        # Ties may break either way; the chosen set must be optimal.
        reference = reference_exact_spread_ic if model == "ic" else reference_exact_spread_lt
        assert reference(graph, seeds) == pytest.approx(ref_value, abs=1e-12)

    def test_more_touched_nodes_than_one_bitmask_word(self):
        """An LT chain of 70 certain edges plus one coin: reach masks span
        two 64-bit words."""
        edges = [(v, v + 1, 1.0) for v in range(69)] + [(69, 70, 0.5)]
        graph = GraphBuilder.from_edges(edges, num_nodes=72)
        for seeds in ([0], [5, 71], [69]):
            assert exact_spread_lt(graph, seeds) == pytest.approx(
                reference_exact_spread_lt(graph, seeds), abs=1e-12
            )
        assert exact_spread_lt(graph, [0]) == pytest.approx(70.5)

    def test_example_1(self):
        graph = paper_example_graph()
        assert exact_spread_ic(graph, [0]) == pytest.approx(3.664, abs=1e-12)
        assert exact_spread_lt(graph, [0]) == pytest.approx(3.9, abs=1e-12)
        assert reference_exact_spread_ic(graph, [0]) == pytest.approx(3.664, abs=1e-12)
        assert reference_exact_spread_lt(graph, [0]) == pytest.approx(3.9, abs=1e-12)
