"""Unit tests for profit maximization."""

import numpy as np
import pytest

from repro.applications import profit_maximization
from repro.graphs import uniform, star_graph


class TestProfitMaximization:
    def test_profitable_hub_selected(self):
        graph = uniform(star_graph(20), 1.0)
        costs = np.full(21, 2.0)
        result = profit_maximization(
            graph, costs, num_machines=2, num_rr_sets=600
        )
        assert 0 in result.seeds
        assert result.objective > 0

    def test_prohibitive_costs_select_nothing(self, small_wc_graph):
        costs = np.full(small_wc_graph.num_nodes, 1e6)
        result = profit_maximization(
            small_wc_graph, costs, num_machines=2, num_rr_sets=500
        )
        assert result.seeds == []
        assert result.objective == 0.0

    def test_free_seeds_select_many(self, small_wc_graph):
        costs = np.zeros(small_wc_graph.num_nodes)
        result = profit_maximization(
            small_wc_graph, costs, num_machines=2, num_rr_sets=800
        )
        # Zero cost: every node with positive marginal coverage is taken.
        assert len(result.seeds) > 10
        assert result.objective == pytest.approx(
            result.params["spread_estimate"], rel=1e-9
        )

    def test_profit_accounting(self, small_wc_graph, rng):
        costs = rng.uniform(0.1, 1.0, size=small_wc_graph.num_nodes)
        result = profit_maximization(
            small_wc_graph, costs, num_machines=3, num_rr_sets=1000, seed=4
        )
        expected = result.params["spread_estimate"] - result.params["total_cost"]
        assert result.objective == pytest.approx(expected, abs=0.05)

    def test_moderate_costs_are_selective(self, small_wc_graph):
        free = profit_maximization(
            small_wc_graph,
            np.zeros(small_wc_graph.num_nodes),
            num_machines=2,
            num_rr_sets=800,
            seed=1,
        )
        priced = profit_maximization(
            small_wc_graph,
            np.full(small_wc_graph.num_nodes, 1.5),
            num_machines=2,
            num_rr_sets=800,
            seed=1,
        )
        assert len(priced.seeds) < len(free.seeds)

    def test_validation(self, small_wc_graph):
        with pytest.raises(ValueError, match="one entry per node"):
            profit_maximization(small_wc_graph, [1.0], num_machines=1, num_rr_sets=10)
        with pytest.raises(ValueError, match="non-negative"):
            profit_maximization(
                small_wc_graph,
                np.full(small_wc_graph.num_nodes, np.nan),
                num_machines=1,
                num_rr_sets=10,
            )
        # A column of n costs holds n entries but is no cost vector.
        with pytest.raises(ValueError, match="one entry per node"):
            profit_maximization(
                small_wc_graph,
                np.linspace(1, 3, small_wc_graph.num_nodes)[:, None],
                num_machines=2,
                num_rr_sets=500,
            )
        with pytest.raises(ValueError, match="non-negative"):
            profit_maximization(
                small_wc_graph,
                np.full(small_wc_graph.num_nodes, -1.0),
                num_machines=1,
                num_rr_sets=10,
            )


# (seeds, objective.hex(), spread_estimate, total_cost, metrics.total_bytes)
# recorded from the dict-accumulating map stage before it was routed
# through coverage.kernel.sparse_decrements; every field must stay identical.
# total_bytes alone was re-pinned once, when the loop moved onto
# NewGreeDiRounds and its gathers became priced by tuple_vector_nbytes
# instead of a flat 8 B/tuple (24596 -> 7334, 26692 -> 7837).
# Every field was re-pinned when the pool's RR sets became coordinate-keyed,
# and again when the IC/LT coins became hashes of those coordinates
# (other samples, same distribution; CHANGES.md has old -> new); what ties
# the map stage to the dict-accumulating one since is test_shared_round.py's
# inlined oracles, which do not depend on which samples are drawn.
PROFIT_GOLDENS = {
    3: (
        [36, 168, 75, 152, 20, 166, 60, 39],
        "0x1.941563b17a585p+5", 76.22, 25.71, 6377,
    ),
    11: (
        [168, 132, 36, 127, 32, 115, 26, 53, 171, 100, 191, 121, 142],
        "0x1.3dca1ec663f7cp+5", 77.11, 37.39, 7115,
    ),
}


@pytest.mark.parametrize("seed", sorted(PROFIT_GOLDENS))
def test_result_and_bytes_pinned_to_reference_map_stage(small_wc_graph, seed):
    costs = 4 * np.random.default_rng(seed).uniform(0.5, 2.0, size=small_wc_graph.num_nodes)
    result = profit_maximization(
        small_wc_graph, costs, num_machines=3, num_rr_sets=900, seed=seed
    )
    seeds, objective, spread_estimate, total_cost, total_bytes = PROFIT_GOLDENS[seed]
    assert result.application == "profit-maximization"
    assert result.seeds == seeds
    assert float(result.objective).hex() == objective
    assert result.num_rr_sets == 900
    assert result.params == {
        "spread_estimate": spread_estimate,
        "total_cost": total_cost,
        "num_machines": 3,
        "model": "ic",
    }
    assert result.metrics.total_bytes == total_bytes
