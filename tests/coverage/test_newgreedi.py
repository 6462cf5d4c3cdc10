"""Unit tests for NEWGREEDI (Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster import (
    COMMUNICATION,
    GeneratePhase,
    SimulatedCluster,
    SimulatedExecutor,
    gigabit_cluster,
)
from repro.coverage import (
    from_elements,
    split_elements,
    gather_coverage_counts,
    greedy_max_coverage,
    newgreedi,
)
from repro.ris import FlatRRCollection, make_sampler
from tests.conftest import make_random_instance, round_robin_stores, simulated


def run_split(instance, k, num_machines, seed=0):
    executor = simulated(num_machines, network=gigabit_cluster(), seed=seed)
    parts = split_elements(instance, num_machines, rng=np.random.default_rng(seed))
    return newgreedi(executor, k, stores=parts), executor


class TestLemma2Equivalence:
    """NEWGREEDI returns exactly the centralized greedy solution."""

    def test_paper_example(self, paper_instance):
        result, __ = run_split(paper_instance, 2, 3)
        central = greedy_max_coverage([paper_instance], 2)
        assert result.seeds == central.seeds
        assert result.coverage == central.coverage == 6

    @pytest.mark.parametrize("num_machines", [1, 2, 3, 7])
    def test_random_instances(self, num_machines):
        rng = np.random.default_rng(17)
        for trial in range(10):
            inst = make_random_instance(rng)
            k = int(rng.integers(1, 6))
            central = greedy_max_coverage([inst], k)
            result, __ = run_split(inst, k, num_machines, seed=trial)
            assert result.seeds == central.seeds
            assert result.coverage == central.coverage

    def test_rr_collection_stores(self, small_wc_graph):
        """End-to-end with real RR collections distributed over machines."""
        executor = SimulatedExecutor(SimulatedCluster(4, seed=3), graph=small_wc_graph)
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(4)]
        executor.run_phase(GeneratePhase("gen", counts=(100,) * 4, targets=stores))
        result = newgreedi(executor, 5, stores=stores)
        merged = greedy_max_coverage(stores, 5)
        assert result.seeds == merged.seeds
        assert result.coverage == merged.coverage

    def test_initial_counts_shortcut(self, paper_instance):
        """Passing precomputed counts must not change the outcome."""
        executor = simulated(2, seed=0)
        parts = split_elements(paper_instance, 2)
        counts = parts[0].coverage_counts() + parts[1].coverage_counts()
        result = newgreedi(executor, 2, stores=parts, initial_counts=counts)
        central = greedy_max_coverage([paper_instance], 2)
        assert result.seeds == central.seeds

    def test_initial_counts_not_mutated(self, paper_instance):
        executor = simulated(2, seed=0)
        parts = split_elements(paper_instance, 2)
        counts = parts[0].coverage_counts() + parts[1].coverage_counts()
        snapshot = counts.copy()
        newgreedi(executor, 2, stores=parts, initial_counts=counts)
        assert np.array_equal(counts, snapshot)


class TestProtocolAccounting:
    def test_communication_recorded(self, paper_instance):
        __, executor = run_split(paper_instance, 2, 3)
        comm = [p for p in executor.metrics.phases if p.category == COMMUNICATION]
        assert comm  # at least the init gather and per-seed rounds
        assert executor.metrics.total_bytes > 0

    def test_traffic_grows_with_machines(self, small_wc_graph):
        """Total gathered bytes grow with the machine count (same elements,
        more sparse vectors)."""
        sampler = make_sampler(small_wc_graph, "ic")
        samples = sampler.sample_many(400, np.random.default_rng(0))
        totals = {}
        for num_machines in (1, 4):
            executor = simulated(num_machines, seed=0)
            stores = round_robin_stores(samples, small_wc_graph.num_nodes, num_machines)
            newgreedi(executor, 5, stores=stores)
            totals[num_machines] = executor.metrics.total_bytes
        assert totals[4] >= totals[1]

    def test_covered_per_machine_sums_to_coverage(self, paper_instance):
        result, __ = run_split(paper_instance, 2, 3)
        assert sum(result.covered_per_machine) == result.coverage


class TestValidation:
    def test_k_must_be_positive(self, paper_instance):
        executor = simulated(2, seed=0)
        with pytest.raises(ValueError):
            newgreedi(executor, 0, stores=split_elements(paper_instance, 2))

    def test_store_count_must_match(self, paper_instance):
        executor = simulated(3, seed=0)
        with pytest.raises(ValueError, match="expected 3 stores"):
            newgreedi(executor, 1, stores=split_elements(paper_instance, 2))

    def test_missing_collections_detected(self):
        """Machines hold no stores: the caller must hand them over."""
        executor = simulated(2, seed=0)
        with pytest.raises(TypeError, match="stores"):
            newgreedi(executor, 1)
        with pytest.raises(TypeError, match="stores"):
            gather_coverage_counts(executor)

    def test_mismatched_universe_rejected(self):
        executor = simulated(2, seed=0)
        stores = [from_elements(3, [[0]]), from_elements(4, [[1]])]
        with pytest.raises(ValueError, match="same universe"):
            newgreedi(executor, 1, stores=stores)

    def test_wrong_initial_counts_length(self, paper_instance):
        executor = simulated(2, seed=0)
        with pytest.raises(ValueError, match="wrong length"):
            newgreedi(
                executor,
                1,
                stores=split_elements(paper_instance, 2),
                initial_counts=np.zeros(3, dtype=np.int64),
            )


class TestGatherCoverageCounts:
    def test_matches_direct_sum(self, paper_instance):
        executor = simulated(2, seed=0)
        parts = split_elements(paper_instance, 2)
        gathered = gather_coverage_counts(executor, parts)
        direct = parts[0].coverage_counts() + parts[1].coverage_counts()
        assert np.array_equal(gathered, direct)

    def test_start_indices_limit_scope(self, small_wc_graph):
        executor = SimulatedExecutor(SimulatedCluster(2, seed=1), graph=small_wc_graph)
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(2)]
        executor.run_phase(GeneratePhase("gen", counts=(50, 50), targets=stores))
        sizes = [store.num_sets for store in stores]
        executor.run_phase(GeneratePhase("more", counts=(30, 30), targets=stores))
        partial = gather_coverage_counts(executor, stores, start_indices=sizes)
        expected = sum(
            (store.coverage_counts(start=size) for store, size in zip(stores, sizes)),
            start=np.zeros(small_wc_graph.num_nodes, dtype=np.int64),
        )
        assert np.array_equal(partial, expected)

    def test_bad_start_indices_length(self, paper_instance):
        executor = simulated(2, seed=0)
        with pytest.raises(ValueError, match="one entry per machine"):
            gather_coverage_counts(executor, split_elements(paper_instance, 2), start_indices=[0])
