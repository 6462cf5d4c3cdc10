"""One Algorithm-1 round, four pick rules, one generation path.

``NewGreeDiRounds`` is the only place the per-seed *broadcast → map →
gather → reduce* round lives; NEWGREEDI and the budgeted / profit /
seed-minimisation loops differ only in how the master picks the next
node.  The oracles below are the four loops as they stood before the
round was factored out — each with its own inlined, dict-accumulating
round on plain lists — and every pick rule driven through the shared
round must reproduce them on random stores.
"""

import heapq
from importlib import import_module

import numpy as np
import pytest

from repro.applications import (
    adaptive_influence_maximization,
    budgeted_influence_maximization,
    profit_maximization,
    seed_minimization,
    targeted_influence_maximization,
)
from repro.cluster import GENERATION, split_count
from repro.core.pool import SamplePool
from repro.coverage import newgreedi
from repro.coverage.greedy import BucketQueue
from repro.coverage.newgreedi import NewGreeDiRounds
from repro.graphs import erdos_renyi, weighted_cascade
from tests.conftest import simulated

THETA = 700


# ----------------------------------------------------------------------
# Oracles: the parent commit's loops, round inlined
# ----------------------------------------------------------------------
class OracleRound:
    """The parent's map stage and reduce, without cluster or kernel."""

    def __init__(self, stores):
        self.stores = stores
        self.covered = [np.zeros(store.num_sets, dtype=bool) for store in stores]
        self.counts = sum(store.coverage_counts() for store in stores).astype(np.int64)
        self.covered_per_machine = [0] * len(stores)
        self.marginals = []

    def run(self, seed):
        gained = 0
        for mid, (store, covered) in enumerate(zip(self.stores, self.covered)):
            delta = {}
            for element in store.sets_containing(seed):
                if covered[element]:
                    continue
                covered[element] = True
                self.covered_per_machine[mid] += 1
                gained += 1
                for node in store.get(element).tolist():
                    delta[node] = delta.get(node, 0) + 1
            for node, decrement in delta.items():
                self.counts[node] -= decrement
        self.marginals.append(gained)
        return gained

    def outcome(self, seeds, coverage):
        return list(seeds), int(coverage), self.marginals, self.covered_per_machine


def oracle_newgreedi(stores, k):
    rounds = OracleRound(stores)
    queue = BucketQueue(rounds.counts)
    seeds, coverage = [], 0
    while len(seeds) < k:
        seed = queue.pop_max()
        if seed is None:
            break
        seeds.append(seed)
        coverage += rounds.run(seed)
    return rounds.outcome(seeds, coverage)


def oracle_budgeted(stores, cost_arr, budget):
    rounds = OracleRound(stores)
    counts = rounds.counts
    heap = [
        (-counts[v] / cost_arr[v], v)
        for v in range(counts.size)
        if counts[v] > 0 and cost_arr[v] <= budget
    ]
    heapq.heapify(heap)
    heap_counts = {v: int(counts[v]) for __, v in heap}
    seeds, remaining, coverage = [], float(budget), 0
    while heap:
        __, candidate = heapq.heappop(heap)
        if candidate in seeds or cost_arr[candidate] > remaining:
            continue
        current = int(counts[candidate])
        if current <= 0:
            continue
        recorded = heap_counts.get(candidate, current)
        if current < recorded:
            heap_counts[candidate] = current
            heapq.heappush(heap, (-current / cost_arr[candidate], candidate))
            continue
        seeds.append(candidate)
        remaining -= float(cost_arr[candidate])
        coverage += rounds.run(candidate)
    # The parent's safeguard: re-aggregate every store, then scan them.
    affordable = np.flatnonzero(cost_arr <= budget)
    if affordable.size:
        initial_counts = sum(store.coverage_counts() for store in stores)
        best_single = int(affordable[np.argmax(initial_counts[affordable])])
        single_cov = sum(store.coverage_of([best_single]) for store in stores)
        if single_cov > coverage:
            seeds, coverage = [best_single], single_cov
    return rounds.outcome(seeds, coverage)


def oracle_profit(stores, cost_arr):
    rounds = OracleRound(stores)
    counts = rounds.counts
    spread_per_element = counts.size / sum(store.num_sets for store in stores)

    def gain_of(node):
        return float(counts[node]) * spread_per_element - float(cost_arr[node])

    heap = [(-gain_of(v), v) for v in range(counts.size) if gain_of(v) > 0]
    heapq.heapify(heap)
    recorded = {v: -g for g, v in heap}
    seeds, coverage = [], 0
    while heap:
        __, candidate = heapq.heappop(heap)
        fresh = gain_of(candidate)
        if fresh <= 0:
            continue
        if fresh < recorded[candidate] - 1e-12:
            recorded[candidate] = fresh
            heapq.heappush(heap, (-fresh, candidate))
            continue
        seeds.append(candidate)
        coverage += rounds.run(candidate)
    return rounds.outcome(seeds, coverage)


def oracle_seedmin(stores, required_spread, cap):
    rounds = OracleRound(stores)
    total = sum(store.num_sets for store in stores)
    required_coverage = int(np.ceil(required_spread / rounds.counts.size * total))
    queue = BucketQueue(rounds.counts)
    seeds, coverage = [], 0
    while coverage < required_coverage and len(seeds) < cap:
        candidate = queue.pop_max()
        if candidate is None:
            break
        seeds.append(candidate)
        coverage += rounds.run(candidate)
    return rounds.outcome(seeds, coverage)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def random_graph(seed):
    rng = np.random.default_rng(seed)
    return weighted_cascade(erdos_renyi(int(rng.integers(40, 90)), 400, rng))


def cold_stores(graph, machines, seed):
    """The stores a cold fixed-budget call draws: ``SamplePool`` streams."""
    with SamplePool(graph, machines, seed=seed) as pool:
        pool.ensure("main", split_count(THETA, machines))
        return pool.stores("main")


@pytest.fixture
def rounds_made(monkeypatch):
    """Every ``NewGreeDiRounds`` an application builds, in order."""
    made = []

    class Recording(NewGreeDiRounds):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for app in ("budgeted", "profit", "seedmin"):
        module = import_module(f"repro.applications.{app}")
        monkeypatch.setattr(module, "NewGreeDiRounds", Recording)
    return made


def shared_outcome(result, rounds, coverage=None):
    coverage = rounds.coverage if coverage is None else coverage
    return list(result.seeds), coverage, rounds.marginals, rounds.covered_per_machine


@pytest.mark.parametrize("machines", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSharedRoundEqualsParentLoops:
    def test_newgreedi_rule(self, machines, seed):
        stores = cold_stores(random_graph(seed), machines, seed)
        result = newgreedi(simulated(machines, seed=0), 6, stores=stores)
        seeds, coverage, marginals, per_machine = oracle_newgreedi(stores, 6)
        assert result.seeds[: len(seeds)] == seeds  # the rest is zero-gain padding
        assert (result.coverage, result.marginals) == (coverage, marginals)
        assert result.covered_per_machine == per_machine

    def test_budgeted_rule(self, machines, seed, rounds_made):
        graph = random_graph(seed)
        costs = np.random.default_rng(seed).uniform(0.5, 3.0, size=graph.num_nodes)
        result = budgeted_influence_maximization(
            graph, costs, 4.0, machines, THETA, seed=seed
        )
        expected = oracle_budgeted(cold_stores(graph, machines, seed), costs, 4.0)
        # The objective is n * coverage / theta, whichever of the loop's
        # answer and the singleton guard's was returned.
        coverage = round(result.objective * THETA / graph.num_nodes)
        assert shared_outcome(result, rounds_made[0], coverage) == expected

    def test_budgeted_singleton_guard(self, machines, seed, rounds_made):
        """The best node (and any tied with it) costs the whole budget,
        every other node a bit more than half of it at a better ratio: the
        loop buys one cheap node and the guard must answer with the best
        singleton — read from the initial counts, where the parent
        re-gathered and scanned."""
        graph = random_graph(seed)
        stores = cold_stores(graph, machines, seed)
        counts = sum(store.coverage_counts() for store in stores)
        order = np.argsort(-counts, kind="stable")
        best = int(order[0])
        top = counts == counts[best]
        runner_up = int(order[np.count_nonzero(top)])
        ratio = counts[runner_up] / counts[best]
        assert 0.5 < ratio < 1.0
        costs = np.full(graph.num_nodes, (0.5 + ratio) / 2)
        costs[top] = 1.0
        result = budgeted_influence_maximization(graph, costs, 1.0, machines, THETA, seed=seed)
        assert result.seeds == [best]
        assert rounds_made[0].marginals == [counts[runner_up]]
        assert shared_outcome(result, rounds_made[0], int(counts[best])) == oracle_budgeted(
            stores, costs, 1.0
        )
        assert result.objective == graph.num_nodes * (counts[best] / THETA)

    def test_profit_rule(self, machines, seed, rounds_made):
        graph = random_graph(seed)
        costs = np.random.default_rng(seed).uniform(0.5, 6.0, size=graph.num_nodes)
        result = profit_maximization(graph, costs, machines, THETA, seed=seed)
        expected = oracle_profit(cold_stores(graph, machines, seed), costs)
        assert shared_outcome(result, rounds_made[0]) == expected

    def test_seedmin_rule(self, machines, seed, rounds_made):
        graph = random_graph(seed)
        required = 0.5 * graph.num_nodes
        result = seed_minimization(graph, required, machines, THETA, seed=seed, max_seeds=9)
        expected = oracle_seedmin(cold_stores(graph, machines, seed), required, 9)
        assert shared_outcome(result, rounds_made[0]) == expected


# ----------------------------------------------------------------------
# Counts: one round per seed, one generation path
# ----------------------------------------------------------------------
def labels(result, category=None):
    return [
        p.label for p in result.metrics.phases if category is None or p.category == category
    ]


class TestPhaseCounts:
    @pytest.fixture
    def ensured(self, monkeypatch):
        calls = []
        real = SamplePool.ensure

        def counting(self, key, needed, label="pool/ensure"):
            calls.append(label)
            return real(self, key, needed, label=label)

        monkeypatch.setattr(SamplePool, "ensure", counting)
        return calls

    def test_one_map_phase_per_selected_seed(self, small_wc_graph, rounds_made):
        costs = np.random.default_rng(3).uniform(0.5, 2.0, size=small_wc_graph.num_nodes)
        runs = {
            "budgeted": budgeted_influence_maximization(
                small_wc_graph, costs, 6.0, 3, 900, seed=3
            ),
            "profit": profit_maximization(small_wc_graph, 4 * costs, 3, 900, seed=3),
            "seedmin": seed_minimization(small_wc_graph, 60.0, 3, 900, seed=3),
        }
        for (label, result), rounds in zip(runs.items(), rounds_made):
            assert len(result.seeds) > 1
            assert labels(result).count(f"{label}/map") == len(result.seeds)
            assert labels(result).count(f"{label}/reset") == 1
            assert len(rounds.marginals) == len(result.seeds)
            assert not [name for name in labels(result) if "single" in name]
        targeted = targeted_influence_maximization(small_wc_graph, range(40), 4, 3, 600)
        assert labels(targeted).count("targeted/newgreedi/map") == 4
        adaptive = adaptive_influence_maximization(small_wc_graph, 3, 2, 200)
        for round_idx in range(3):
            assert labels(adaptive).count(f"adaptive-{round_idx}/newgreedi/map") == 1

    def test_cold_generation_goes_through_the_pool(self, small_wc_graph, ensured):
        costs = np.ones(small_wc_graph.num_nodes)
        runs = {
            "budgeted": budgeted_influence_maximization(small_wc_graph, costs, 3.0, 2, 300),
            "profit": profit_maximization(small_wc_graph, costs, 2, 300),
            "seedmin": seed_minimization(small_wc_graph, 20.0, 2, 300),
            "targeted": targeted_influence_maximization(small_wc_graph, range(30), 2, 2, 300),
        }
        assert ensured == [f"{label}/generate" for label in runs]
        for label, result in runs.items():
            assert labels(result, GENERATION) == [f"{label}/generate"]
            assert result.num_rr_sets == 300

    def test_warm_call_is_the_same_path_and_draws_only_the_shortfall(
        self, small_wc_graph, ensured
    ):
        costs = np.ones(small_wc_graph.num_nodes)
        with SamplePool(small_wc_graph, 2, seed=4) as pool:
            first = budgeted_influence_maximization(
                small_wc_graph, costs, 3.0, 2, 300, seed=4, pool=pool
            )
            again = profit_maximization(small_wc_graph, costs, 2, 200, seed=4, pool=pool)
            assert pool.sizes() == {"main": [150, 150]}
            assert pool.queries_served == 2
        assert ensured == ["budgeted/generate", "profit/generate"]
        assert labels(first, GENERATION) == ["budgeted/generate"]
        assert labels(again, GENERATION) == []  # a prefix of what is resident
        cold = profit_maximization(small_wc_graph, costs, 2, 200, seed=4)
        assert (again.seeds, again.objective) == (cold.seeds, cold.objective)


# ----------------------------------------------------------------------
# One validation
# ----------------------------------------------------------------------
class TestSharedValidation:
    @pytest.mark.parametrize("num_rr_sets", [0, -5])
    def test_every_fixed_budget_application_refuses_an_empty_sample(
        self, small_wc_graph, num_rr_sets
    ):
        costs = np.ones(small_wc_graph.num_nodes)
        calls = [
            lambda: budgeted_influence_maximization(small_wc_graph, costs, 3.0, 2, num_rr_sets),
            lambda: profit_maximization(small_wc_graph, costs, 2, num_rr_sets),
            lambda: seed_minimization(small_wc_graph, 20.0, 2, num_rr_sets),
            lambda: targeted_influence_maximization(small_wc_graph, [1, 2], 2, 2, num_rr_sets),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"num_rr_sets must be >= 1, got {num_rr_sets}"):
                call()

    def test_lent_pool_must_draw_the_calls_streams(self, small_wc_graph, paper_graph):
        costs = np.ones(small_wc_graph.num_nodes)
        with SamplePool(small_wc_graph, 2, seed=4) as pool:

            def call(graph=small_wc_graph, machines=2, seed=4, model="ic", costs=costs):
                return profit_maximization(
                    graph, costs, machines, 100, model=model, seed=seed, pool=pool
                )

            call()
            with pytest.raises(ValueError, match="graph"):
                call(graph=paper_graph, costs=np.ones(paper_graph.num_nodes))
            with pytest.raises(ValueError, match="machines"):
                call(machines=3)
            with pytest.raises(ValueError, match="seed"):
                call(seed=5)
            with pytest.raises(ValueError, match="pool samples"):
                call(model="lt")
            assert pool.queries_served == 1  # refused before touching the pool
        # ``method`` is a vestige: a pool built with "subsim" draws the
        # same keyed kernel and serves the call exactly as a cold run.
        with SamplePool(small_wc_graph, 2, seed=4, method="subsim") as subsim_pool:
            warm = budgeted_influence_maximization(
                small_wc_graph, costs, 3.0, 2, 100, seed=4, pool=subsim_pool
            )
        cold = budgeted_influence_maximization(small_wc_graph, costs, 3.0, 2, 100, seed=4)
        assert warm.seeds == cold.seeds and warm.objective == cold.objective
