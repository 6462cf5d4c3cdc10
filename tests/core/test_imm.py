"""Unit tests for single-machine IMM."""

import math

import numpy as np
import pytest

from repro.core import imm
from repro.diffusion import estimate_spread, exact_optimum, get_model
from repro.graphs import star_graph, uniform, weighted_cascade, erdos_renyi


class TestBasicBehaviour:
    def test_returns_k_seeds(self, medium_wc_graph):
        result = imm(medium_wc_graph, 5, eps=0.5, seed=0)
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_result_fields_consistent(self, medium_wc_graph):
        result = imm(medium_wc_graph, 5, eps=0.5, seed=0)
        assert result.algorithm == "IMM"
        assert result.num_rr_sets > 0
        assert result.total_rr_size >= result.num_rr_sets
        assert result.total_edges_examined >= 0
        assert result.lower_bound >= 1.0
        assert 1 <= result.search_rounds
        assert result.metrics.communication_time == 0

    def test_estimated_spread_bounded_by_n(self, medium_wc_graph):
        result = imm(medium_wc_graph, 5, eps=0.5, seed=0)
        assert 0 < result.estimated_spread <= medium_wc_graph.num_nodes

    def test_deterministic_for_seed(self, small_wc_graph):
        a = imm(small_wc_graph, 3, eps=0.5, seed=9)
        b = imm(small_wc_graph, 3, eps=0.5, seed=9)
        assert a.seeds == b.seeds
        assert a.num_rr_sets == b.num_rr_sets

    def test_delta_defaults_to_inverse_n(self, small_wc_graph):
        result = imm(small_wc_graph, 3, eps=0.5, seed=0)
        assert result.params["delta"] == pytest.approx(1 / small_wc_graph.num_nodes)

    def test_more_rr_sets_for_smaller_eps(self, small_wc_graph):
        loose = imm(small_wc_graph, 3, eps=0.6, seed=0)
        tight = imm(small_wc_graph, 3, eps=0.3, seed=0)
        assert tight.num_rr_sets > loose.num_rr_sets

    def test_lt_model(self, medium_wc_graph):
        result = imm(medium_wc_graph, 5, eps=0.5, model="lt", seed=0)
        assert result.model == "lt"
        assert len(result.seeds) == 5

    def test_subsim_method(self, medium_wc_graph):
        # ``method`` is a vestige: "subsim" is accepted and changes nothing.
        result = imm(medium_wc_graph, 5, eps=0.5, method="subsim", seed=0)
        plain = imm(medium_wc_graph, 5, eps=0.5, seed=0)
        assert len(result.seeds) == 5
        assert result.seeds == plain.seeds
        assert result.num_rr_sets == plain.num_rr_sets


class TestSolutionQuality:
    def test_identifies_obvious_hub(self, rng):
        # A star graph with unit probabilities: node 0 is the only
        # reasonable first seed.
        graph = uniform(star_graph(50), 1.0)
        result = imm(graph, 1, eps=0.3, seed=1)
        assert result.seeds == [0]

    def test_approximation_on_brute_forceable_graph(self):
        graph = weighted_cascade(erdos_renyi(10, 18, np.random.default_rng(3)))
        result = imm(graph, 2, eps=0.3, seed=0)
        __, opt = exact_optimum(graph, 2, model="ic")
        mc = estimate_spread(
            graph, result.seeds, get_model("ic"), 30000, np.random.default_rng(1)
        )
        # The guarantee is 1 - 1/e - eps with eps = 0.3; allow MC noise.
        assert mc.mean >= (1 - 1 / math.e - 0.3) * opt - 0.1

    def test_spread_estimate_close_to_monte_carlo(self, medium_wc_graph):
        result = imm(medium_wc_graph, 10, eps=0.5, seed=2)
        mc = estimate_spread(
            medium_wc_graph,
            result.seeds,
            get_model("ic"),
            2000,
            np.random.default_rng(5),
        )
        assert result.estimated_spread == pytest.approx(mc.mean, rel=0.15)


class TestSamplingSchedule:
    def test_search_stops_before_max_rounds_on_easy_graph(self, medium_wc_graph):
        result = imm(medium_wc_graph, 10, eps=0.5, seed=0)
        max_rounds = int(math.log2(medium_wc_graph.num_nodes)) - 1
        assert result.search_rounds <= max_rounds

    def test_final_theta_at_least_lambda_star_over_lb(self, medium_wc_graph):
        from repro.core import ImmParameters

        result = imm(medium_wc_graph, 10, eps=0.5, seed=0)
        params = ImmParameters.compute(
            medium_wc_graph.num_nodes, 10, 0.5, 1 / medium_wc_graph.num_nodes
        )
        assert result.num_rr_sets >= params.theta_final(result.lower_bound)

    def test_generation_dominates_runtime(self, medium_wc_graph):
        """The paper observes RR generation is the dominant cost."""
        result = imm(medium_wc_graph, 10, eps=0.5, seed=0)
        breakdown = result.breakdown
        assert breakdown["generation"] > breakdown["computation"]
