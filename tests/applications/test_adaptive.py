"""Unit tests for adaptive influence maximization."""

import pytest

from repro.applications import adaptive_influence_maximization
from repro.graphs import GraphBuilder, uniform, star_graph


class TestAdaptiveIM:
    def test_selects_k_rounds(self, small_wc_graph):
        result = adaptive_influence_maximization(
            small_wc_graph, k=4, num_machines=2, rr_sets_per_round=400, seed=0
        )
        assert len(result.seeds) == 4
        assert len(set(result.seeds)) == 4
        assert result.num_rr_sets == 4 * 400

    def test_objective_is_realized_activation(self, small_wc_graph):
        result = adaptive_influence_maximization(
            small_wc_graph, k=3, num_machines=2, rr_sets_per_round=400, seed=1
        )
        # Realized activations include at least the seeds themselves.
        assert result.objective >= 3

    def test_two_stars_picks_both_hubs(self):
        # Deterministic unit-probability stars: after seeding hub 0 its
        # whole star is observed active, so round two must pick hub 6.
        builder = GraphBuilder(num_nodes=12)
        for leaf in range(1, 6):
            builder.add_edge(0, leaf, 1.0)
        for leaf in range(7, 12):
            builder.add_edge(6, leaf, 1.0)
        graph = builder.build()
        result = adaptive_influence_maximization(
            graph, k=2, num_machines=2, rr_sets_per_round=300, seed=0
        )
        assert set(result.seeds) == {0, 6}
        assert result.objective == 12

    def test_feedback_avoids_covered_region(self):
        # A star plus isolated stragglers: once the hub is seeded and its
        # star observed active, the second seed must be a straggler.
        builder = GraphBuilder(num_nodes=12)
        for leaf in range(1, 9):
            builder.add_edge(0, leaf, 1.0)
        graph = builder.build()  # nodes 9-11 are isolated
        result = adaptive_influence_maximization(
            graph, k=2, num_machines=1, rr_sets_per_round=300, seed=0
        )
        assert result.seeds[0] == 0
        assert result.seeds[1] in {9, 10, 11}

    def test_stops_when_everything_activated(self):
        graph = uniform(star_graph(8), 1.0)
        result = adaptive_influence_maximization(
            graph, k=5, num_machines=1, rr_sets_per_round=200, seed=0
        )
        # The hub's cascade activates the whole graph in round one.
        assert result.seeds == [0]
        assert result.objective == 9

    def test_deterministic(self, small_wc_graph):
        a = adaptive_influence_maximization(
            small_wc_graph, k=3, num_machines=2, rr_sets_per_round=300, seed=9
        )
        b = adaptive_influence_maximization(
            small_wc_graph, k=3, num_machines=2, rr_sets_per_round=300, seed=9
        )
        assert a.seeds == b.seeds
        assert a.objective == b.objective

    def test_validation(self, small_wc_graph):
        with pytest.raises(ValueError):
            adaptive_influence_maximization(
                small_wc_graph, k=0, num_machines=1, rr_sets_per_round=10
            )
        with pytest.raises(ValueError):
            adaptive_influence_maximization(
                small_wc_graph, k=1, num_machines=1, rr_sets_per_round=0
            )
        with pytest.raises(KeyError, match="unknown diffusion model"):
            adaptive_influence_maximization(
                small_wc_graph, k=1, num_machines=1, rr_sets_per_round=10, model="sir"
            )

    def test_lt_model(self, small_wc_graph):
        result = adaptive_influence_maximization(
            small_wc_graph,
            k=3,
            num_machines=2,
            rr_sets_per_round=300,
            model="lt",
            seed=2,
        )
        assert len(result.seeds) == 3
        assert result.objective >= 3
        assert result.params["model"] == "lt"

    def test_network_model_accrues_communication(self, small_wc_graph):
        from repro.cluster import NetworkModel

        network = NetworkModel(bandwidth=1e6, latency=0.01)
        result = adaptive_influence_maximization(
            small_wc_graph,
            k=2,
            num_machines=2,
            rr_sets_per_round=200,
            network=network,
            seed=0,
        )
        comm = [e for e in result.metrics.phases if e.category == "communication"]
        assert comm
        assert sum(e.num_bytes for e in comm) > 0

    def test_metrics_rounds_annotated(self, small_wc_graph):
        result = adaptive_influence_maximization(
            small_wc_graph, k=3, num_machines=2, rr_sets_per_round=200, seed=1
        )
        labels = {e.label.split("/")[0] for e in result.metrics.phases}
        assert {"adaptive-0", "adaptive-1", "adaptive-2"} <= labels


class TestWithoutNodes:
    def test_edges_removed(self, paper_graph):
        residual = paper_graph.without_nodes([1])
        assert residual.num_nodes == 4
        assert not residual.has_edge(0, 1)
        assert not residual.has_edge(1, 3)
        assert residual.has_edge(0, 2)

    def test_empty_removal_is_identity(self, paper_graph):
        assert paper_graph.without_nodes([]) == paper_graph

    def test_remove_all(self, paper_graph):
        residual = paper_graph.without_nodes(range(4))
        assert residual.num_edges == 0
