"""Unit tests for targeted influence maximization."""

import numpy as np
import pytest

from repro.applications import budgeted_influence_maximization, targeted_influence_maximization
from repro.core.pool import SamplePool
from repro.graphs import GraphBuilder
from repro.ris import make_sampler
from repro.ris.rrset import sample_set_range


class TestTargetedSampler:
    """Targeted sampling is a root set: a pool's ``roots=``."""

    def test_roots_only_from_targets(self, small_wc_graph):
        targets = [3, 7, 11]
        kernel = make_sampler(small_wc_graph, "ic")
        batch = sample_set_range(kernel, 1, 0, range(100), "main", targets)
        assert set(batch.roots.tolist()) <= set(targets)

    def test_num_targets_deduplicates(self, small_wc_graph):
        with SamplePool(small_wc_graph, roots=[2, 1, 1]) as pool:
            assert pool.roots.tolist() == [1, 2]

    def test_empty_targets_rejected(self, small_wc_graph):
        with pytest.raises(ValueError, match="not be empty"):
            SamplePool(small_wc_graph, roots=[])

    def test_out_of_range_targets_rejected(self, small_wc_graph):
        with pytest.raises(ValueError, match="root ids"):
            SamplePool(small_wc_graph, roots=[10**6])
        with pytest.raises(ValueError, match="root ids"):
            SamplePool(small_wc_graph, roots=[-1, 3])


class TestTargetedIM:
    def test_seed_reaches_targets(self):
        # Two disjoint stars; targets are the leaves of star B, so the
        # hub of star B must be selected despite equal degrees.
        builder = GraphBuilder(num_nodes=12)
        for leaf in range(1, 6):
            builder.add_edge(0, leaf, 1.0)  # star A: hub 0
        for leaf in range(7, 12):
            builder.add_edge(6, leaf, 1.0)  # star B: hub 6
        graph = builder.build()
        result = targeted_influence_maximization(
            graph, targets=range(7, 12), k=1, num_machines=2, num_rr_sets=600
        )
        assert result.seeds == [6]

    def test_objective_bounded_by_targets(self, small_wc_graph):
        targets = list(range(20))
        result = targeted_influence_maximization(
            small_wc_graph, targets, k=3, num_machines=2, num_rr_sets=500
        )
        assert 0 <= result.objective <= len(targets)
        assert result.params["num_targets"] == 20

    def test_all_nodes_targeted_recovers_plain_im(self, small_wc_graph):
        """Targets = V reduces to ordinary influence maximization."""
        result = targeted_influence_maximization(
            small_wc_graph,
            range(small_wc_graph.num_nodes),
            k=3,
            num_machines=2,
            num_rr_sets=2000,
            seed=1,
        )
        assert len(result.seeds) == 3
        assert result.objective > 3  # seeds influence at least themselves

    def test_validation(self, small_wc_graph):
        with pytest.raises(ValueError):
            targeted_influence_maximization(
                small_wc_graph, [0], k=0, num_machines=1, num_rr_sets=10
            )
        with pytest.raises(ValueError):
            targeted_influence_maximization(
                small_wc_graph, [0], k=1, num_machines=1, num_rr_sets=0
            )

    def test_metrics_recorded(self, small_wc_graph):
        result = targeted_influence_maximization(
            small_wc_graph, [0, 1, 2], k=2, num_machines=3, num_rr_sets=300
        )
        assert result.breakdown["generation"] > 0
        assert result.summary_row()["application"] == "targeted-influence-maximization"

    def test_lent_pool_must_draw_from_the_same_roots(self, small_wc_graph):
        """A lent pool rooted elsewhere is refused, in either direction,
        rather than answering from the wrong sample."""
        targets = list(range(0, 200, 7))
        common = dict(k=3, num_machines=2, num_rr_sets=400, seed=3)
        cold = targeted_influence_maximization(small_wc_graph, targets, **common)
        with SamplePool(small_wc_graph, 2, seed=3) as plain:
            with pytest.raises(ValueError, match="root set"):
                targeted_influence_maximization(small_wc_graph, targets, pool=plain, **common)
        with SamplePool(small_wc_graph, 2, seed=3, roots=targets[1:]) as other:
            with pytest.raises(ValueError, match="root set"):
                targeted_influence_maximization(small_wc_graph, targets, pool=other, **common)
        with SamplePool(small_wc_graph, 2, seed=3, roots=targets[::-1] + [0]) as same:
            warm = targeted_influence_maximization(small_wc_graph, targets, pool=same, **common)
            assert warm.seeds == cold.seeds and warm.objective == cold.objective
            costs = np.ones(small_wc_graph.num_nodes)
            with pytest.raises(ValueError, match="root set"):
                budgeted_influence_maximization(
                    small_wc_graph, costs, 5.0, 2, 400, seed=3, pool=same
                )
