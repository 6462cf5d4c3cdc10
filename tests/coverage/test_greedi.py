"""Unit tests for the GREEDI / RANDGREEDI baselines."""

import math

import numpy as np
import pytest

from repro.cluster import COMMUNICATION, SimulatedCluster
from repro.coverage import (
    CoverageInstance,
    greedi,
    greedy_max_coverage,
    partition_sets,
    randgreedi,
)
from tests.conftest import make_random_instance
from tests.oracle import reference_greedi


class TestPartition:
    def test_round_robin_covers_everything(self):
        parts = partition_sets(10, 3)
        combined = sorted(np.concatenate(parts).tolist())
        assert combined == list(range(10))

    def test_balanced_sizes(self):
        parts = partition_sets(10, 3)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_random_partition_is_permutation(self):
        parts = partition_sets(10, 4, rng=np.random.default_rng(0))
        combined = sorted(np.concatenate(parts).tolist())
        assert combined == list(range(10))


class TestGreedi:
    def test_paper_example(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        result = greedi(cluster, paper_instance, 2)
        assert len(result.seeds) == 2
        assert result.coverage <= 6

    def test_never_beats_optimum(self):
        """GREEDI stays below the exhaustive optimum (it may occasionally
        edge out the centralized *greedy*, which is itself suboptimal)."""
        import itertools

        rng = np.random.default_rng(1)
        for trial in range(15):
            inst = make_random_instance(rng, max_sets=10, max_elements=30)
            k = int(rng.integers(1, 4))
            best = max(
                inst.coverage_of(combo)
                for combo in itertools.combinations(
                    range(inst.num_nodes), min(k, inst.num_nodes)
                )
            )
            cluster = SimulatedCluster(3, seed=trial)
            result = greedi(cluster, inst, k)
            assert result.coverage <= best

    def test_single_machine_equals_centralized(self, paper_instance):
        cluster = SimulatedCluster(1, seed=0)
        result = greedi(cluster, paper_instance, 2)
        central = greedy_max_coverage([paper_instance], 2)
        assert result.coverage == central.coverage

    def test_candidate_traffic_charged(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        greedi(cluster, paper_instance, 2)
        comm = [p for p in cluster.metrics.phases if p.category == COMMUNICATION]
        assert sum(p.num_bytes for p in comm) > 0

    def test_kappa_defaults_to_k(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        result = greedi(cluster, paper_instance, 3)
        assert len(result.seeds) == 3

    def test_invalid_k(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError):
            greedi(cluster, paper_instance, 0)

    def test_worst_case_guarantee_holds(self):
        """GREEDI coverage >= (1-1/e)^2 / min(l, k) of the optimum."""
        import itertools

        rng = np.random.default_rng(4)
        for trial in range(10):
            inst = make_random_instance(rng, max_sets=10, max_elements=25)
            k = 3
            num_machines = 2
            best = max(
                inst.coverage_of(combo)
                for combo in itertools.combinations(
                    range(inst.num_nodes), min(k, inst.num_nodes)
                )
            )
            cluster = SimulatedCluster(num_machines, seed=trial)
            result = greedi(cluster, inst, k)
            bound = (1 - 1 / math.e) ** 2 / min(num_machines, k)
            assert result.coverage >= bound * best - 1e-9


class TestRandGreedi:
    def test_runs_and_respects_k(self, paper_instance):
        cluster = SimulatedCluster(2, seed=0)
        result = randgreedi(cluster, paper_instance, 2, rng=np.random.default_rng(0))
        assert len(result.seeds) == 2

    def test_shuffle_changes_partition_outcome_possible(self):
        # Adversarial instance where round-robin and a random partition can
        # differ; we only check both run and stay below centralized.
        inst = CoverageInstance(
            6, [[0, 1], [0, 2], [3, 4], [3, 5], [1, 4], [2, 5]]
        )
        import itertools

        best = max(
            inst.coverage_of(combo)
            for combo in itertools.combinations(range(6), 2)
        )
        cluster = SimulatedCluster(3, seed=0)
        result = randgreedi(cluster, inst, 2, rng=np.random.default_rng(8))
        assert result.coverage <= best


class TestEdgeCases:
    """Coverage gaps: empty instances, k > set count, tie-breaking."""

    def test_empty_instance_pads_seeds(self):
        cluster = SimulatedCluster(2, seed=0)
        empty = CoverageInstance(5, [])
        result = greedi(cluster, empty, 3)
        assert len(result.seeds) == len(set(result.seeds)) == 3
        assert result.coverage == 0
        assert result.num_elements == 0

    def test_k_exceeding_set_count_pads_deterministically(self, paper_instance):
        # k = num sets: every set is selected (or padded in), no repeats.
        cluster = SimulatedCluster(2, seed=0)
        result = greedi(cluster, paper_instance, paper_instance.num_nodes)
        assert sorted(result.seeds) == list(range(paper_instance.num_nodes))

    def test_tie_breaking_is_lowest_id_and_deterministic(self):
        # Four sets covering identical element counts: pure tie.  The
        # bucket queue breaks ties to the lowest set id on both the
        # per-partition and the merge stage.
        inst = CoverageInstance(4, [[0], [1], [2], [3]])
        results = [
            greedi(SimulatedCluster(2, seed=0), inst, 2) for _ in range(3)
        ]
        assert all(r.seeds == [0, 1] for r in results)

    def test_backends_agree_on_edge_cases(self):
        """The kernel and the oracle's per-element restricted greedy."""
        inst = CoverageInstance(5, [[0, 1], [1, 2], [3], [3], [3]])
        for k in (1, 3, 5):
            flat = greedi(SimulatedCluster(2, seed=0), inst, k)
            ref = reference_greedi(SimulatedCluster(2, seed=0), inst, k)
            assert flat.seeds == ref.seeds
            assert flat.coverage == ref.coverage

    def test_centralized_greedy_empty_and_overfull(self):
        empty = CoverageInstance(3, [])
        result = greedy_max_coverage([empty], 2)
        assert sorted(result.seeds) == [0, 1] and result.coverage == 0
        inst = CoverageInstance(3, [[0], [0, 1]])
        result = greedy_max_coverage([inst], 5)
        assert sorted(result.seeds) == [0, 1, 2]
        assert result.coverage == 2
