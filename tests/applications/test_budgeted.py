"""Unit tests for budgeted influence maximization."""

import numpy as np
import pytest

from repro.applications import budgeted_influence_maximization
from repro.graphs import GraphBuilder, uniform, star_graph


class TestBudgetedIM:
    def test_budget_respected(self, small_wc_graph, rng):
        costs = rng.uniform(0.5, 2.0, size=small_wc_graph.num_nodes)
        result = budgeted_influence_maximization(
            small_wc_graph, costs, budget=5.0, num_machines=2, num_rr_sets=800
        )
        assert float(costs[result.seeds].sum()) <= 5.0 + 1e-9
        assert result.params["spent"] <= 5.0 + 1e-6

    def test_uniform_costs_match_cardinality_greedy(self, small_wc_graph):
        """Unit costs and budget k reduce to plain k-seed greedy coverage."""
        costs = np.ones(small_wc_graph.num_nodes)
        result = budgeted_influence_maximization(
            small_wc_graph, costs, budget=4.0, num_machines=2,
            num_rr_sets=1000, seed=3,
        )
        assert len(result.seeds) == 4

    def test_loop_stops_when_nothing_left_is_affordable(self, small_wc_graph, monkeypatch):
        """Once the budget left is below every cost still queued, the queue
        hands out nothing: every pop is a seed, and the one pop after the
        last seed finds the queue exhausted (an unaffordable node scores
        zero).  A loop that popped and skipped the remaining nodes would
        show them here."""
        from repro.coverage.greedy import BucketQueue
        from repro.coverage.newgreedi import NewGreeDiRounds

        events = []
        real_pop, real_select = BucketQueue.pop_max, NewGreeDiRounds.select

        def recording_pop(self):
            popped = real_pop(self)
            events.append(("pop", popped))
            return popped

        monkeypatch.setattr(BucketQueue, "pop_max", recording_pop)
        monkeypatch.setattr(
            NewGreeDiRounds,
            "select",
            lambda self, seed: events.append(("select", seed)) or real_select(self, seed),
        )
        costs = np.ones(small_wc_graph.num_nodes)
        result = budgeted_influence_maximization(
            small_wc_graph, costs, budget=3.5, num_machines=2, num_rr_sets=1000, seed=3
        )
        assert len(result.seeds) == 3
        picks = [event for seed in result.seeds for event in (("pop", seed), ("select", seed))]
        assert events == picks + [("pop", None)]

    def test_expensive_hub_skipped(self):
        # Hub covers everything but costs more than the whole budget;
        # greedy must fall back to leaves.
        graph = uniform(star_graph(6), 1.0)
        costs = np.ones(7)
        costs[0] = 100.0
        result = budgeted_influence_maximization(
            graph, costs, budget=3.0, num_machines=2, num_rr_sets=400
        )
        assert 0 not in result.seeds
        assert len(result.seeds) == 3

    def test_cheap_hub_preferred(self):
        graph = uniform(star_graph(6), 1.0)
        costs = np.full(7, 3.0)
        costs[0] = 1.0
        result = budgeted_influence_maximization(
            graph, costs, budget=3.0, num_machines=2, num_rr_sets=400
        )
        assert 0 in result.seeds

    def test_singleton_safeguard(self):
        # One node with enormous coverage but cost = budget; the ratio
        # rule may prefer many cheap low-coverage nodes, the singleton
        # guard must still consider the big node.
        builder = GraphBuilder(num_nodes=30)
        for leaf in range(1, 25):
            builder.add_edge(0, leaf, 1.0)
        builder.add_edge(25, 26, 1.0)
        graph = builder.build()
        costs = np.ones(30)
        costs[0] = 4.0
        result = budgeted_influence_maximization(
            graph, costs, budget=4.0, num_machines=2, num_rr_sets=800
        )
        # Covering with the hub reaches ~25 nodes; any 4 cheap nodes far
        # fewer — the safeguard (or the ratio greedy) must find the hub.
        assert 0 in result.seeds

    def test_validation(self, small_wc_graph):
        n = small_wc_graph.num_nodes
        with pytest.raises(ValueError, match="one entry per node"):
            budgeted_influence_maximization(
                small_wc_graph, [1.0], budget=1, num_machines=1, num_rr_sets=10
            )
        with pytest.raises(ValueError, match="positive"):
            budgeted_influence_maximization(
                small_wc_graph, np.zeros(n), budget=1, num_machines=1, num_rr_sets=10
            )
        with pytest.raises(ValueError, match="positive"):
            budgeted_influence_maximization(
                small_wc_graph, np.full(n, np.nan), budget=1, num_machines=1, num_rr_sets=10
            )
        # A column of n costs holds n entries but is no cost vector.
        with pytest.raises(ValueError, match="one entry per node"):
            budgeted_influence_maximization(
                small_wc_graph,
                np.linspace(1, 3, n)[:, None],
                budget=5.0,
                num_machines=2,
                num_rr_sets=500,
            )
        with pytest.raises(ValueError, match="budget"):
            budgeted_influence_maximization(
                small_wc_graph, np.ones(n), budget=0, num_machines=1, num_rr_sets=10
            )


# (seeds, objective.hex(), spent, metrics.total_bytes) recorded from the
# dict-accumulating map stage before it was routed through
# coverage.kernel.sparse_decrements; every field must stay identical.
# total_bytes alone was re-pinned once, when the loop moved onto
# NewGreeDiRounds: gathers are priced by tuple_vector_nbytes instead of a
# flat 8 B/tuple (23688 -> 5959, 22376 -> 5630) and the singleton
# safeguard's 1204 B re-gather is gone (26288 -> 7355, 25000 -> 7050).
# Every field was re-pinned when the pool's RR sets became coordinate-keyed,
# and again when the IC/LT coins became hashes of those coordinates
# (other samples, same distribution; CHANGES.md has old -> new); what ties
# the map stage to the dict-accumulating one since is test_shared_round.py's
# inlined oracles, which do not depend on which samples are drawn.
BUDGETED_GOLDENS = {
    3: ([166, 36, 20, 152, 75, 168, 60], "0x1.2000000000000p+6", 5.5999, 6586),
    11: ([168, 132, 60, 58, 171, 53, 32, 158, 115], "0x1.0000000000000p+6", 5.9384, 6617),
}


@pytest.mark.parametrize("seed", sorted(BUDGETED_GOLDENS))
def test_result_and_bytes_pinned_to_reference_map_stage(small_wc_graph, seed):
    costs = np.random.default_rng(seed).uniform(0.5, 2.0, size=small_wc_graph.num_nodes)
    result = budgeted_influence_maximization(
        small_wc_graph, costs, budget=6.0, num_machines=3, num_rr_sets=900, seed=seed
    )
    seeds, objective, spent, total_bytes = BUDGETED_GOLDENS[seed]
    assert result.application == "budgeted-influence-maximization"
    assert result.seeds == seeds
    assert float(result.objective).hex() == objective
    assert result.num_rr_sets == 900
    assert result.params == {"budget": 6.0, "spent": spent, "num_machines": 3, "model": "ic"}
    assert result.metrics.total_bytes == total_bytes
