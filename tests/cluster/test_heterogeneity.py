"""Unit tests for heterogeneous-machine simulation."""

import itertools

import numpy as np
import pytest

from repro.cluster import (
    GENERATION,
    GeneratePhase,
    Machine,
    SimulatedCluster,
    make_executor,
)
from repro.ris import FlatRRCollection


class TestSlowdown:
    def test_slowdown_scales_metered_time(self):
        clock = itertools.count(start=0.0, step=1.0)
        machine = Machine(
            0, np.random.default_rng(0), clock=lambda: next(clock), slowdown=3.0
        )
        __, elapsed = machine.run(lambda m: None)
        assert elapsed == 3.0

    def test_invalid_slowdown(self):
        with pytest.raises(ValueError):
            Machine(0, np.random.default_rng(0), slowdown=0.0)

    def test_cluster_slowdowns_assigned(self):
        cluster = SimulatedCluster(3, seed=0, slowdowns=[1.0, 2.0, 4.0])
        assert [m.slowdown for m in cluster.machines] == [1.0, 2.0, 4.0]

    def test_cluster_slowdowns_length_checked(self):
        with pytest.raises(ValueError, match="one entry per machine"):
            SimulatedCluster(3, seed=0, slowdowns=[1.0])

    def test_default_homogeneous(self):
        cluster = SimulatedCluster(2, seed=0)
        assert all(m.slowdown == 1.0 for m in cluster.machines)


class TestWeightedSplit:
    def test_homogeneous_matches_even_split(self):
        cluster = SimulatedCluster(4, seed=0)
        assert cluster.split_count_weighted(10) == cluster.split_count(10)

    def test_weighted_favours_fast_machines(self):
        cluster = SimulatedCluster(2, seed=0, slowdowns=[1.0, 3.0])
        shares = cluster.split_count_weighted(100)
        assert sum(shares) == 100
        assert shares[0] == 75  # speed 1 vs 1/3: 3:1 ratio
        assert shares[1] == 25

    def test_sum_exact_with_rounding(self):
        cluster = SimulatedCluster(3, seed=0, slowdowns=[1.0, 2.0, 3.0])
        for total in (1, 7, 100, 101):
            assert sum(cluster.split_count_weighted(total)) == total

    def test_zero_total(self):
        cluster = SimulatedCluster(3, seed=0, slowdowns=[1.0, 2.0, 3.0])
        assert cluster.split_count_weighted(0) == [0, 0, 0]

    def test_single_machine_takes_everything(self):
        cluster = SimulatedCluster(1, seed=0, slowdowns=[7.5])
        assert cluster.split_count_weighted(42) == [42]

    def test_uniform_non_unit_slowdowns_split_evenly(self):
        """Equal machines split evenly no matter their absolute speed."""
        cluster = SimulatedCluster(4, seed=0, slowdowns=[2.5] * 4)
        assert cluster.split_count_weighted(10) == cluster.split_count(10)

    def test_weighted_split_improves_parallel_time(self, small_wc_graph):
        """On a 2-speed cluster, the weighted split's simulated parallel
        generation time beats the even split."""
        times = {}
        for strategy in ("even", "weighted"):
            cluster = SimulatedCluster(4, seed=1, slowdowns=[1, 1, 4, 4])
            executor = make_executor("simulated", cluster, graph=small_wc_graph)
            shares = (
                cluster.split_count(2000)
                if strategy == "even"
                else cluster.split_count_weighted(2000)
            )
            stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in shares]
            executor.run_phase(GeneratePhase(strategy, counts=tuple(shares), targets=stores))
            times[strategy] = cluster.metrics.generation_time
        assert times["weighted"] < times["even"]

    @pytest.mark.parametrize("executor_name", ["simulated", "multiprocessing"])
    def test_executor_generation_on_heterogeneous_cluster(
        self, executor_name, small_wc_graph
    ):
        """Both executors honour the weighted split and the slowdown
        metering on a heterogeneous cluster."""
        cluster = SimulatedCluster(3, seed=4, slowdowns=[1.0, 1.0, 50.0])
        executor = make_executor(executor_name, cluster, graph=small_wc_graph)
        shares = cluster.split_count_weighted(505)
        assert shares[2] < shares[0]
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in shares]
        result = executor.run_phase(GeneratePhase("hetero", counts=tuple(shares), targets=stores))
        assert [store.num_sets for store in stores] == shares
        record = cluster.metrics.phases_in(GENERATION)[-1]
        assert record.machine_times == result.machine_times
        # Machine 2 draws ~1/50 of the work but is metered 50x slower, so
        # it still dominates neither by a huge margin nor trivially; at
        # minimum its per-set cost must exceed the fast machines'.
        per_set = [t / s for t, s in zip(result.machine_times, shares)]
        assert per_set[2] > per_set[0]
