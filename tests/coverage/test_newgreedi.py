"""Unit tests for NEWGREEDI (Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster import COMMUNICATION, SimulatedCluster, gigabit_cluster
from repro.coverage import (
    CoverageInstance,
    gather_coverage_counts,
    greedy_max_coverage,
    newgreedi,
)
from repro.ris import FlatRRCollection, make_sampler
from tests.conftest import make_random_instance


def run_split(instance, k, num_machines, seed=0):
    cluster = SimulatedCluster(num_machines, network=gigabit_cluster(), seed=seed)
    parts = instance.split(num_machines, rng=np.random.default_rng(seed))
    return newgreedi(cluster, k, stores=parts), cluster


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
        sampler = make_sampler(small_wc_graph, "ic")
        cluster = SimulatedCluster(4, seed=3)
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in cluster.machines]
        for store, machine in zip(stores, cluster.machines):
            store.extend(sampler.sample_many(100, machine.rng))
        result = newgreedi(cluster, 5, stores=stores)
        merged = greedy_max_coverage(stores, 5)
        assert result.seeds == merged.seeds
        assert result.coverage == merged.coverage

    def test_initial_counts_shortcut(self, paper_instance):
        """Passing precomputed counts must not change the outcome."""
        cluster = SimulatedCluster(2, seed=0)
        parts = paper_instance.split(2)
        counts = parts[0].coverage_counts() + parts[1].coverage_counts()
        result = newgreedi(cluster, 2, stores=parts, initial_counts=counts)
        central = greedy_max_coverage([paper_instance], 2)
        assert result.seeds == central.seeds

    def test_initial_counts_not_mutated(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        parts = paper_instance.split(2)
        counts = parts[0].coverage_counts() + parts[1].coverage_counts()
        snapshot = counts.copy()
        newgreedi(cluster, 2, stores=parts, initial_counts=counts)
        assert np.array_equal(counts, snapshot)


class TestProtocolAccounting:
    def test_communication_recorded(self, paper_instance):
        __, cluster = run_split(paper_instance, 2, 3)
        comm = [p for p in cluster.metrics.phases if p.category == COMMUNICATION]
        assert comm  # at least the init gather and per-seed rounds
        assert cluster.metrics.total_bytes > 0

    def test_traffic_grows_with_machines(self, small_wc_graph):
        """Total gathered bytes grow with the machine count (same elements,
        more sparse vectors)."""
        sampler = make_sampler(small_wc_graph, "ic")
        samples = sampler.sample_many(400, np.random.default_rng(0))
        totals = {}
        for num_machines in (1, 4):
            cluster = SimulatedCluster(num_machines, seed=0)
            stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(num_machines)]
            for idx, sample in enumerate(samples):
                stores[idx % num_machines].add(sample)
            newgreedi(cluster, 5, stores=stores)
            totals[num_machines] = cluster.metrics.total_bytes
        assert totals[4] >= totals[1]

    def test_covered_per_machine_sums_to_coverage(self, paper_instance):
        result, __ = run_split(paper_instance, 2, 3)
        assert sum(result.covered_per_machine) == result.coverage


class TestValidation:
    def test_k_must_be_positive(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError):
            newgreedi(cluster, 0, stores=paper_instance.split(2))

    def test_store_count_must_match(self, paper_instance):
        cluster = SimulatedCluster(3, seed=0)
        with pytest.raises(ValueError, match="expected 3 stores"):
            newgreedi(cluster, 1, stores=paper_instance.split(2))

    def test_missing_collections_detected(self):
        """Machines hold no stores: the caller must hand them over."""
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(TypeError, match="stores"):
            newgreedi(cluster, 1)
        with pytest.raises(TypeError, match="stores"):
            gather_coverage_counts(cluster)

    def test_mismatched_universe_rejected(self):
        cluster = SimulatedCluster(2, seed=0)
        stores = [CoverageInstance(3, [[0]]), CoverageInstance(4, [[1]])]
        with pytest.raises(ValueError, match="same universe"):
            newgreedi(cluster, 1, stores=stores)

    def test_wrong_initial_counts_length(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError, match="wrong length"):
            newgreedi(
                cluster,
                1,
                stores=paper_instance.split(2),
                initial_counts=np.zeros(3, dtype=np.int64),
            )


class TestGatherCoverageCounts:
    def test_matches_direct_sum(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        parts = paper_instance.split(2)
        gathered = gather_coverage_counts(cluster, parts)
        direct = parts[0].coverage_counts() + parts[1].coverage_counts()
        assert np.array_equal(gathered, direct)

    def test_start_indices_limit_scope(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, "ic")
        cluster = SimulatedCluster(2, seed=1)
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in cluster.machines]
        for store, machine in zip(stores, cluster.machines):
            store.extend(sampler.sample_many(50, machine.rng))
        sizes = [store.num_sets for store in stores]
        for store, machine in zip(stores, cluster.machines):
            store.extend(sampler.sample_many(30, machine.rng))
        partial = gather_coverage_counts(cluster, stores, start_indices=sizes)
        expected = sum(
            (store.coverage_counts(start=size) for store, size in zip(stores, sizes)),
            start=np.zeros(small_wc_graph.num_nodes, dtype=np.int64),
        )
        assert np.array_equal(partial, expected)

    def test_bad_start_indices_length(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError, match="one entry per machine"):
            gather_coverage_counts(cluster, paper_instance.split(2), start_indices=[0])
