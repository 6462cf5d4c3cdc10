"""Unit tests for the LT reverse-walk RR-set sampler."""

import numpy as np
import pytest

from repro.diffusion import exact_spread_lt
from repro.graphs import (
    DirectedGraph,
    GraphBuilder,
    GraphDelta,
    VersionedGraph,
    cycle_graph,
    path_graph,
    uniform,
    weighted_cascade,
)
from repro.ris import LTReverseWalkSampler, VectorizedLTSampler, vectorized
from repro.ris.rrset import uniform_rows


class TestStructure:
    def test_rr_set_is_a_reverse_path(self, small_wc_graph, rng):
        sampler = LTReverseWalkSampler(small_wc_graph)
        for __ in range(50):
            sample = sampler.sample(rng)
            assert sample.root in sample
            assert len(sample) >= 1

    def test_walk_stops_at_indegree_zero(self, rng):
        graph = uniform(path_graph(4), 1.0)
        sampler = LTReverseWalkSampler(graph)
        sample = sampler.sample(rng, root=3)
        # Unit probabilities force the walk all the way back to node 0.
        assert sample.nodes.tolist() == [0, 1, 2, 3]

    def test_walk_stops_on_revisit(self, rng):
        graph = uniform(cycle_graph(4), 1.0)
        sampler = LTReverseWalkSampler(graph)
        sample = sampler.sample(rng, root=0)
        # The walk loops the cycle exactly once, then hits a visited node.
        assert sample.nodes.size == 4

    def test_stop_probability(self, rng):
        # Single in-edge with probability 0.25: the walk extends past the
        # root a quarter of the time.
        graph = GraphBuilder.from_edges([(0, 1, 0.25)], num_nodes=2)
        sampler = LTReverseWalkSampler(graph)
        sizes = [len(sampler.sample(rng, root=1)) for __ in range(20000)]
        assert np.mean([s == 2 for s in sizes]) == pytest.approx(0.25, abs=0.02)

    def test_infeasible_graph_rejected(self):
        graph = GraphBuilder.from_edges([(0, 2, 0.8), (1, 2, 0.8)], num_nodes=3)
        with pytest.raises(ValueError, match="sum to <= 1"):
            LTReverseWalkSampler(graph)

    def test_edges_examined_counts_degrees(self, rng):
        graph = uniform(path_graph(3), 1.0)
        sampler = LTReverseWalkSampler(graph)
        sample = sampler.sample(rng, root=2)
        # Nodes 2 and 1 have one in-edge each; node 0 has none.
        assert sample.edges_examined == 2


class TestDistribution:
    def test_example2_lt_path_probability(self, paper_graph):
        """Under LT the RR set {v1, v3, v4} needs the walk v4 -> v3 -> v1.

        Probability: pick the v3 in-edge at v4 (0.2), then at v3 the single
        unit edge to v1 (1.0), then v1 has no in-edges: 0.2 total.
        """
        sampler = LTReverseWalkSampler(paper_graph)
        rng = np.random.default_rng(0)
        target = frozenset({0, 2, 3})
        hits = sum(
            frozenset(sampler.sample(rng, root=3).nodes.tolist()) == target
            for __ in range(50000)
        )
        assert hits / 50000 == pytest.approx(0.2, abs=0.01)

    def test_lemma1_unbiased_spread(self, paper_graph):
        sampler = LTReverseWalkSampler(paper_graph)
        rng = np.random.default_rng(1)
        num = 60000
        covered = sum(0 in sampler.sample(rng) for __ in range(num))
        assert 4 * covered / num == pytest.approx(
            exact_spread_lt(paper_graph, [0]), abs=0.05
        )

    def test_weighted_cascade_never_stops_midwalk(self, rng):
        # WC sums incoming probabilities to exactly 1, so the walk only
        # terminates at in-degree-zero nodes or revisits.
        graph = weighted_cascade(uniform(cycle_graph(5), 1.0))
        sampler = LTReverseWalkSampler(graph)
        for __ in range(50):
            assert len(sampler.sample(rng)) == 5

    def test_nonuniform_probabilities_branch(self, rng):
        # Exercises the binary-search path (unequal in-probabilities).
        graph = GraphBuilder.from_edges(
            [(0, 2, 0.7), (1, 2, 0.2)], num_nodes=3
        )
        sampler = LTReverseWalkSampler(graph)
        first = sum(
            1 in sampler.sample(rng, root=2).nodes.tolist() for __ in range(20000)
        )
        assert first / 20000 == pytest.approx(0.2, abs=0.015)

    def test_deterministic_with_seed(self, small_wc_graph):
        sampler = LTReverseWalkSampler(small_wc_graph)
        a = sampler.sample_many(20, np.random.default_rng(5))
        b = sampler.sample_many(20, np.random.default_rng(5))
        assert all(np.array_equal(x.nodes, y.nodes) for x, y in zip(a, b))


def loop_uniform(graph) -> np.ndarray:
    """The per-node loop both LT samplers ran at construction, kept as
    the reference for the vectorised ``uniform_rows``."""
    flags = np.zeros(graph.num_nodes, dtype=bool)
    for v in range(graph.num_nodes):
        seg = graph.in_probabilities(v)
        if seg.size:
            flags[v] = bool(np.all(seg == seg[0]))
    return flags


class TestUniformRowFlags:
    # In-row values per node: empty rows first, last, adjacent, everywhere, nowhere.
    SHAPES = {
        "empty-first": [[], [0.2, 0.2], [0.1, 0.3]],
        "empty-last": [[0.5], [0.2, 0.1, 0.2], []],
        "empty-adjacent": [[0.3, 0.3], [], [], [0.1, 0.2], [], [0.4]],
        "all-empty": [[], [], []],
        "no-empty": [[0.25, 0.25], [0.5, 0.25], [1.0]],
        "last-entry-differs": [[0.2, 0.2, 0.2, 0.1], [0.2, 0.2]],
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_the_loop(self, shape):
        rows = self.SHAPES[shape]
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows]))).astype(np.int64)
        values = np.asarray([p for row in rows for p in row], dtype=np.float64)
        expected = [bool(row) and all(p == row[0] for p in row) for row in rows]
        assert uniform_rows(indptr, values).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_loop_on_random_graphs(self, small_wc_graph, seed):
        rng = np.random.default_rng(seed)
        src, dst, probs = small_wc_graph.edge_arrays()
        # Halve a random third of the edges: a mix of uniform and
        # non-uniform rows, sums still <= 1.
        probs = np.where(rng.random(probs.size) < 0.33, probs * 0.5, probs)
        keep = rng.random(probs.size) < 0.7  # leaves some rows empty
        graph = DirectedGraph(small_wc_graph.num_nodes, src[keep], dst[keep], probs[keep])
        expected = loop_uniform(graph)
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(LTReverseWalkSampler(graph)._uniform, expected)
        np.testing.assert_array_equal(VectorizedLTSampler(graph)._uniform, expected)

    def test_overlay_rows_override_the_base(self, small_wc_graph, rng):
        graph = VersionedGraph(
            DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
        )
        triples = list(small_wc_graph.edges())
        picks = [triples[int(i)] for i in rng.choice(len(triples), size=6, replace=False)]
        emptied = picks[0][1]
        graph.apply(
            GraphDelta(
                # One row loses every edge, three stop being uniform, and
                # removals alone leave rows uniform.
                remove_edges=[(int(u), emptied) for u in small_wc_graph.in_neighbors(emptied)]
                + [(u, v) for u, v, _ in picks[1:3] if v != emptied],
                reweight_edges=[(u, v, p * 0.5) for u, v, p in picks[3:] if v != emptied],
            )
        )
        expected = loop_uniform(graph)
        assert not expected[emptied]
        np.testing.assert_array_equal(LTReverseWalkSampler(graph)._uniform, expected)


def loop_running_sums(graph) -> np.ndarray:
    """Each non-uniform in-row's running sum, one row at a time: the
    reference for the LT kernel's grouped construction."""
    starts, counts, _, probs, uniform = vectorized._row_tables(graph)
    expected = probs.astype(np.float64, copy=True)
    for v in np.flatnonzero(~uniform & (counts > 0)):
        row = slice(starts[v], starts[v] + counts[v])
        expected[row] = np.cumsum(probs[row])
    return expected


class TestRunningSums:
    """The kernel's running sums are each row's own, summed in row order:
    the same bits as a per-row loop, whatever the row's length group or
    storage offset."""

    @staticmethod
    def mixed_graph(small_wc_graph, seed):
        rng = np.random.default_rng(seed)
        src, dst, probs = small_wc_graph.edge_arrays()
        probs = np.where(rng.random(probs.size) < 0.33, probs * 0.5, probs)
        # A hub: node 0 takes an in-edge from a third of the nodes, with
        # unequal weights summing below one.
        hub_src = np.arange(1, small_wc_graph.num_nodes, 3)
        hub_p = rng.random(hub_src.size) / hub_src.size
        keep = dst != 0
        return DirectedGraph(
            small_wc_graph.num_nodes,
            np.concatenate((src[keep], hub_src)),
            np.concatenate((dst[keep], np.zeros_like(hub_src))),
            np.concatenate((probs[keep], hub_p)),
        )

    @pytest.mark.parametrize("chunk", [1 << 20, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_the_per_row_loop(self, small_wc_graph, seed, chunk, monkeypatch):
        # chunk=7 splits every length group into several gathers.
        monkeypatch.setattr(vectorized, "_RUNNING_SUM_CHUNK", chunk)
        graph = self.mixed_graph(small_wc_graph, seed)
        sums = VectorizedLTSampler(graph)._cumulative
        assert sums is not None
        assert sums.tobytes() == loop_running_sums(graph).tobytes()

    def test_overlay_rows_equal_the_per_row_loop(self, small_wc_graph, rng):
        graph = VersionedGraph(
            DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
        )
        triples = list(small_wc_graph.edges())
        picks = [triples[int(i)] for i in rng.choice(len(triples), size=8, replace=False)]
        graph.apply(GraphDelta(reweight_edges=[(u, v, p * 0.5) for u, v, p in picks]))
        sums = VectorizedLTSampler(graph)._cumulative
        assert sums is not None
        assert sums.tobytes() == loop_running_sums(graph).tobytes()
