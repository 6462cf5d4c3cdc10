"""Unit tests for the SUBSIM subset-sampling RR sampler.

The crucial property: SUBSIM draws RR sets from *exactly the same
distribution* as the plain reverse BFS — only faster.  Tests compare
empirical coverage statistics between the two samplers.
"""

import numpy as np
import pytest

from repro.diffusion import exact_spread_ic
from repro.graphs import (
    DirectedGraph,
    GraphDelta,
    VersionedGraph,
    erdos_renyi,
    star_graph,
    uniform,
    weighted_cascade,
)
from repro.ris import ICReverseBFSSampler, SubsimSampler


def row_tables_by_loop(graph):
    """``(p_max, uniform)`` as the constructor's per-node loop computed
    them before it was vectorised: in-row by in-row."""
    p_max = np.zeros(graph.num_nodes)
    flags = np.zeros(graph.num_nodes, dtype=bool)
    for v in range(graph.num_nodes):
        seg = graph.in_probabilities(v)
        if seg.size:
            p_max[v] = float(seg.max())
            flags[v] = bool(np.all(seg == seg.max()))
    return p_max, flags


class TestRowTables:
    """``_p_max`` / ``_uniform`` come from two ``reduceat`` passes; they
    must equal the per-node loop's on every layout."""

    @pytest.mark.parametrize("probabilities", ["weighted-cascade", "nonuniform"])
    def test_plain_graph(self, probabilities):
        rng = np.random.default_rng(4)
        graph = erdos_renyi(120, 500, rng)  # sparse: some nodes have no in-edge
        if probabilities == "weighted-cascade":
            graph = weighted_cascade(graph)
        else:
            src, dst, _ = graph.edge_arrays()
            graph = DirectedGraph(120, src, dst, rng.uniform(0.05, 1.0, size=src.size))
        assert (graph.in_degrees() == 0).any()
        sampler = SubsimSampler(graph)
        p_max, flags = row_tables_by_loop(graph)
        np.testing.assert_array_equal(sampler._p_max, p_max)
        np.testing.assert_array_equal(sampler._uniform, flags)

    def test_overlay_with_patched_emptied_and_added_rows(self):
        rng = np.random.default_rng(4)
        base = weighted_cascade(erdos_renyi(120, 500, rng))
        graph = VersionedGraph(DirectedGraph(120, *base.edge_arrays()))
        edges = list(base.edges())
        emptied = edges[0][1]
        bare = int(np.flatnonzero(base.in_degrees() == 0)[0])
        graph.apply(
            GraphDelta(
                # emptied: every in-edge of one node goes
                remove_edges=[(u, v) for u, v, _ in edges if v == emptied],
                # patched: one row loses its uniformity, one keeps it
                reweight_edges=[(*edges[40][:2], 0.9)]
                + [(u, v, 0.25) for u, v, _ in edges if v == edges[80][1] != emptied],
                # added: a node with no in-edge gets a row; another row grows
                add_edges=[(3, bare, 0.5), (7, bare, 0.2), (bare, edges[120][1], 0.6)],
            )
        )
        sampler = SubsimSampler(graph)
        p_max, flags = row_tables_by_loop(graph)
        np.testing.assert_array_equal(sampler._p_max, p_max)
        np.testing.assert_array_equal(sampler._uniform, flags)
        assert sampler._p_max[emptied] == 0.0 and not sampler._uniform[emptied]
        assert sampler._p_max[bare] == 0.5 and not sampler._uniform[bare]
        # ... and the tables are those of the graph the constructor builds.
        targets = np.repeat(np.arange(graph.num_nodes), graph.in_degrees())
        compact = SubsimSampler(DirectedGraph(120, graph.in_indices, targets, graph.in_probs))
        np.testing.assert_array_equal(sampler._p_max, compact._p_max)
        np.testing.assert_array_equal(sampler._uniform, compact._uniform)


class TestStructure:
    def test_root_always_included(self, small_wc_graph, rng):
        sampler = SubsimSampler(small_wc_graph)
        for __ in range(100):
            sample = sampler.sample(rng)
            assert sample.root in sample

    def test_unit_probability_fallback(self, rng):
        # p_max >= 1 takes the direct coin-flip branch.
        graph = uniform(star_graph(5, outward=True), 1.0)
        sampler = SubsimSampler(graph)
        sample = sampler.sample(rng, root=3)
        assert sample.nodes.tolist() == [0, 3]

    def test_zero_probability_nodes(self, rng):
        graph = uniform(star_graph(3), 0.0)
        sampler = SubsimSampler(graph)
        assert sampler.sample(rng, root=1).nodes.tolist() == [1]

    def test_scratch_bitmap_reset(self, small_wc_graph, rng):
        sampler = SubsimSampler(small_wc_graph)
        for __ in range(100):
            sampler.sample(rng)
        assert not sampler._visited.any()

    def test_uniform_flags_detected(self, small_wc_graph):
        sampler = SubsimSampler(small_wc_graph)
        # Weighted cascade: all in-edges of a node share 1/indeg.
        has_in = small_wc_graph.in_degrees() > 0
        assert np.all(sampler._uniform[has_in])


class TestDistributionEquivalence:
    def test_spread_estimate_matches_exact(self, paper_graph):
        sampler = SubsimSampler(paper_graph)
        rng = np.random.default_rng(2)
        num = 60000
        covered = sum(0 in sampler.sample(rng) for __ in range(num))
        assert 4 * covered / num == pytest.approx(
            exact_spread_ic(paper_graph, [0]), abs=0.05
        )

    def test_matches_bfs_on_wc_graph(self, small_wc_graph):
        num = 20000
        bfs = ICReverseBFSSampler(small_wc_graph)
        sub = SubsimSampler(small_wc_graph)
        bfs_sizes = [
            len(s) for s in bfs.sample_many(num, np.random.default_rng(3))
        ]
        sub_sizes = [
            len(s) for s in sub.sample_many(num, np.random.default_rng(4))
        ]
        assert np.mean(sub_sizes) == pytest.approx(np.mean(bfs_sizes), rel=0.05)

    def test_matches_bfs_with_nonuniform_probs(self):
        # Rejection branch: random (non-equal) probabilities per edge.
        base = erdos_renyi(30, 200, np.random.default_rng(0))
        probs = np.random.default_rng(1).uniform(0.05, 0.6, size=base.num_edges)
        graph = base.with_probabilities(probs)
        num = 30000
        bfs = ICReverseBFSSampler(graph)
        sub = SubsimSampler(graph)
        bfs_cov = sum(
            0 in s for s in bfs.sample_many(num, np.random.default_rng(5))
        )
        sub_cov = sum(
            0 in s for s in sub.sample_many(num, np.random.default_rng(6))
        )
        assert sub_cov / num == pytest.approx(bfs_cov / num, abs=0.02)

    def test_per_edge_success_probability(self, rng):
        # A node with 4 in-edges at p = 0.3: each must be live 30% of the
        # time under geometric-jump sampling.
        graph = uniform(star_graph(4, outward=False), 0.3)
        sampler = SubsimSampler(graph)
        counts = np.zeros(5)
        num = 20000
        for __ in range(num):
            sample = sampler.sample(rng, root=0)
            counts[sample.nodes] += 1
        for leaf in range(1, 5):
            assert counts[leaf] / num == pytest.approx(0.3, abs=0.02)


class TestEfficiency:
    def test_fewer_draws_than_degree_on_sparse_probs(self, rng):
        # A hub with 1000 in-edges at p = 1/1000: SUBSIM's work should be
        # near-constant, far below the in-degree.
        graph = weighted_cascade(star_graph(1000, outward=False))
        sampler = SubsimSampler(graph)
        draws = [
            sampler.sample(rng, root=0).edges_examined for __ in range(200)
        ]
        assert np.mean(draws) < 50
