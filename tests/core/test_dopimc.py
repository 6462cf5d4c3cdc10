"""Unit tests for distributed OPIM-C."""

import math

import numpy as np

from repro.core import diimm, distributed_opimc
from repro.diffusion import estimate_spread, exact_optimum, get_model
from repro.graphs import erdos_renyi, weighted_cascade
from repro.ris import FlatRRCollection, append_batch, make_sampler


class TestDistributedOpimc:
    def test_basic_run(self, medium_wc_graph):
        result = distributed_opimc(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        assert result.algorithm == "DOPIM-C"
        assert len(result.seeds) == 5
        assert result.search_rounds >= 1

    def test_certified_ratio_reached(self, medium_wc_graph):
        result = distributed_opimc(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        # lower_bound stores the certified sigma_low / opt_high ratio.
        assert result.lower_bound >= 1 - 1 / math.e - 0.5

    def test_uses_fewer_rr_sets_than_diimm(self, medium_wc_graph):
        """OPIM-C's selling point: early stopping needs fewer samples."""
        opim = distributed_opimc(medium_wc_graph, 10, 4, eps=0.5, seed=1)
        imm_result = diimm(medium_wc_graph, 10, 4, eps=0.5, seed=1)
        assert opim.num_rr_sets < imm_result.num_rr_sets

    def test_quality_comparable_to_diimm(self, medium_wc_graph):
        """The mean spread ratio over seeds 1-36 is at least 0.85.

        One seed's ratio spreads over ~0.78-0.95 (sd ~0.045: eps=0.5 lets
        OPIM-C stop at a few hundred sets), so one seed says little about a
        bound near the distribution's middle.  Spreads are read off one
        held-out collection of 50,000 RR sets (``n * coverage / sets``:
        unbiased, like a Monte-Carlo estimate, at a small fraction of its
        cost); the ratio of two needs only the coverages.
        """
        heldout = FlatRRCollection(medium_wc_graph.num_nodes)
        sampler = make_sampler(medium_wc_graph, model="ic", method="vectorized")
        append_batch(heldout, sampler.sample_batch(np.random.default_rng(2), 50_000))
        ratios = []
        for seed in range(1, 37):
            opim = distributed_opimc(medium_wc_graph, 10, 4, eps=0.5, seed=seed)
            imm_result = diimm(medium_wc_graph, 10, 4, eps=0.5, seed=seed)
            opim_cover = heldout.coverage_of(list(opim.seeds))
            ratios.append(opim_cover / heldout.coverage_of(list(imm_result.seeds)))
        assert np.mean(ratios) >= 0.85, ratios

    def test_lt_model(self, medium_wc_graph):
        result = distributed_opimc(medium_wc_graph, 5, 4, eps=0.5, model="lt", seed=0)
        assert result.model == "lt"

    def test_theta_initial_override(self, small_wc_graph):
        result = distributed_opimc(
            small_wc_graph, 3, 2, eps=0.5, seed=0, theta_initial=128
        )
        # Two collections of at least the initial size each.
        assert result.num_rr_sets >= 256

    def test_deterministic(self, small_wc_graph):
        a = distributed_opimc(small_wc_graph, 3, 2, eps=0.5, seed=5)
        b = distributed_opimc(small_wc_graph, 3, 2, eps=0.5, seed=5)
        assert a.seeds == b.seeds

    def test_approximation_on_brute_forceable_graph(self):
        graph = weighted_cascade(erdos_renyi(10, 18, np.random.default_rng(3)))
        result = distributed_opimc(graph, 2, 2, eps=0.3, seed=0)
        __, opt = exact_optimum(graph, 2, model="ic")
        mc = estimate_spread(
            graph, result.seeds, get_model("ic"), 30000, np.random.default_rng(1)
        )
        assert mc.mean >= (1 - 1 / math.e - 0.3) * opt - 0.1
