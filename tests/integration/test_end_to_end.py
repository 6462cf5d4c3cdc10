"""Cross-module integration tests: the full pipeline on one graph.

These tests walk the complete paper pipeline — graph, weighting, RR
sampling, distributed collection, NEWGREEDI selection, Monte-Carlo
validation — asserting the pieces agree with each other rather than any
single module in isolation.
"""

import math

import numpy as np
import pytest

from repro import (
    FlatRRCollection,
    diimm,
    estimate_spread,
    evaluate_seeds,
    get_model,
    greedy_max_coverage,
    imm,
    load_dataset,
    make_sampler,
    newgreedi,
    weighted_cascade,
)
from repro.graphs import erdos_renyi
from repro.cluster import GeneratePhase, SimulatedCluster, SimulatedExecutor


@pytest.fixture(scope="module")
def pipeline_graph():
    return weighted_cascade(erdos_renyi(1500, 9000, np.random.default_rng(31)))


class TestRISPipeline:
    def test_rr_estimate_agrees_with_forward_simulation(self, pipeline_graph):
        """Lemma 1 glue test: coverage-based and forward MC spread agree."""
        sampler = make_sampler(pipeline_graph, "ic")
        rng = np.random.default_rng(0)
        samples = sampler.sample_many(20000, rng)
        seeds = [0, 1, 2]
        covered = sum(1 for s in samples if any(v in s for v in seeds))
        ris_estimate = pipeline_graph.num_nodes * covered / len(samples)
        mc = estimate_spread(pipeline_graph, seeds, get_model("ic"), 3000, rng)
        assert ris_estimate == pytest.approx(mc.mean, rel=0.1)

    def test_distributed_collections_cover_like_central(self, pipeline_graph):
        executor = SimulatedExecutor(SimulatedCluster(5, seed=2), graph=pipeline_graph)
        stores = [FlatRRCollection(pipeline_graph.num_nodes) for __ in range(5)]
        executor.run_phase(GeneratePhase("gen", counts=(400,) * 5, targets=stores))
        distributed = newgreedi(executor, 8, stores=stores)
        central = greedy_max_coverage(stores, 8)
        assert distributed.seeds == central.seeds


class TestAlgorithmsAgree:
    def test_imm_and_diimm_select_similar_quality(self, pipeline_graph):
        rng = np.random.default_rng(5)
        model = get_model("ic")
        imm_seeds = imm(pipeline_graph, 8, eps=0.5, seed=7).seeds
        diimm_seeds = diimm(pipeline_graph, 8, 4, eps=0.5, seed=7).seeds
        imm_mc = estimate_spread(pipeline_graph, imm_seeds, model, 1500, rng)
        diimm_mc = estimate_spread(pipeline_graph, diimm_seeds, model, 1500, rng)
        assert diimm_mc.mean == pytest.approx(imm_mc.mean, rel=0.1)

    def test_greedy_beats_random_and_degree_heuristics(self, pipeline_graph):
        """Sanity: DIIMM seeds outperform random seeds and match or beat
        the top-out-degree heuristic."""
        rng = np.random.default_rng(6)
        model = get_model("ic")
        k = 8
        result = diimm(pipeline_graph, k, 4, eps=0.5, seed=9)
        random_seeds = rng.choice(pipeline_graph.num_nodes, size=k, replace=False)
        degree_seeds = np.argsort(pipeline_graph.out_degrees())[-k:]
        ours = estimate_spread(pipeline_graph, result.seeds, model, 1500, rng).mean
        rand = estimate_spread(pipeline_graph, random_seeds, model, 1500, rng).mean
        deg = estimate_spread(pipeline_graph, degree_seeds, model, 1500, rng).mean
        assert ours > rand
        assert ours >= 0.95 * deg


class TestDatasetsEndToEnd:
    def test_facebook_quick_run(self):
        ds = load_dataset("facebook")
        result = diimm(ds.graph, 10, 4, eps=0.6, seed=0)
        assert len(result.seeds) == 10
        mc = evaluate_seeds(
            ds.graph, result.seeds, "ic", 300, np.random.default_rng(0)
        )
        assert mc.mean == pytest.approx(result.estimated_spread, rel=0.2)

    def test_theoretical_guarantee_parameters_propagate(self):
        ds = load_dataset("facebook")
        result = diimm(ds.graph, 10, 4, eps=0.6, seed=0)
        assert result.params["eps"] == 0.6
        assert result.params["delta"] == pytest.approx(1 / ds.num_nodes)
        assert result.lower_bound > 1.0
        assert result.search_rounds <= int(math.log2(ds.num_nodes)) - 1
