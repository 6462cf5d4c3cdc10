"""Unit tests for heterogeneous-machine simulation."""

import itertools

import pytest

from repro.cluster import (
    GENERATION,
    GeneratePhase,
    SimulatedCluster,
    SimulatedExecutor,
    make_executor,
    split_count,
)
from repro.experiments.ablations import split_count_weighted
from repro.ris import FlatRRCollection


class TestSlowdown:
    def test_slowdown_scales_metered_time(self):
        clock = itertools.count(start=0.0, step=1.0)
        cluster = SimulatedCluster(1, seed=0, clock=lambda: next(clock), slowdowns=[3.0])
        __, elapsed = SimulatedExecutor(cluster).timed(lambda: None, 0)
        assert elapsed == 3.0

    def test_invalid_slowdown(self):
        with pytest.raises(ValueError):
            SimulatedCluster(1, seed=0, slowdowns=[0.0])

    def test_cluster_slowdowns_assigned(self):
        cluster = SimulatedCluster(3, seed=0, slowdowns=[1.0, 2.0, 4.0])
        assert cluster.slowdowns == (1.0, 2.0, 4.0)

    def test_cluster_slowdowns_length_checked(self):
        with pytest.raises(ValueError, match="one entry per machine"):
            SimulatedCluster(3, seed=0, slowdowns=[1.0])

    def test_default_homogeneous(self):
        cluster = SimulatedCluster(2, seed=0)
        assert cluster.slowdowns == (1.0, 1.0)


class TestWeightedSplit:
    def test_homogeneous_matches_even_split(self):
        assert split_count_weighted(10, [1.0] * 4) == split_count(10, 4)

    def test_weighted_favours_fast_machines(self):
        shares = split_count_weighted(100, [1.0, 3.0])
        assert sum(shares) == 100
        assert shares[0] == 75  # speed 1 vs 1/3: 3:1 ratio
        assert shares[1] == 25

    def test_sum_exact_with_rounding(self):
        for total in (1, 7, 100, 101):
            assert sum(split_count_weighted(total, [1.0, 2.0, 3.0])) == total

    def test_zero_total(self):
        assert split_count_weighted(0, [1.0, 2.0, 3.0]) == [0, 0, 0]

    def test_single_machine_takes_everything(self):
        assert split_count_weighted(42, [7.5]) == [42]

    def test_uniform_non_unit_slowdowns_split_evenly(self):
        """Equal machines split evenly no matter their absolute speed."""
        assert split_count_weighted(10, [2.5] * 4) == split_count(10, 4)

    def test_weighted_split_improves_parallel_time(self, small_wc_graph):
        """On a 2-speed cluster, the weighted split's simulated parallel
        generation time beats the even split.

        Each side is the best of three runs of identical work, and the
        sides alternate, so a slow spell of the box reaches both.
        """
        times = {"even": [], "weighted": []}
        for _ in range(3):
            for strategy, runs in times.items():
                cluster = SimulatedCluster(4, seed=1, slowdowns=[1, 1, 4, 4])
                executor = make_executor("simulated", cluster, graph=small_wc_graph)
                shares = (
                    split_count(2000, 4)
                    if strategy == "even"
                    else split_count_weighted(2000, cluster.slowdowns)
                )
                stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in shares]
                executor.run_phase(GeneratePhase(strategy, counts=tuple(shares), targets=stores))
                runs.append(executor.metrics.generation_time)
        assert min(times["weighted"]) < min(times["even"])

    @pytest.mark.parametrize("executor_name", ["simulated", "multiprocessing"])
    def test_executor_generation_on_heterogeneous_cluster(
        self, executor_name, small_wc_graph
    ):
        """Both executors honour the weighted split and the slowdown
        metering on a heterogeneous cluster."""
        cluster = SimulatedCluster(3, seed=4, slowdowns=[1.0, 1.0, 50.0])
        executor = make_executor(executor_name, cluster, graph=small_wc_graph)
        shares = split_count_weighted(505, cluster.slowdowns)
        assert shares[2] < shares[0]
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in shares]
        result = executor.run_phase(GeneratePhase("hetero", counts=tuple(shares), targets=stores))
        assert [store.num_sets for store in stores] == shares
        record = executor.metrics.phases_in(GENERATION)[-1]
        assert record.machine_times == result.machine_times
        # Machine 2 draws ~1/50 of the work but is metered 50x slower, so
        # it still dominates neither by a huge margin nor trivially; at
        # minimum its per-set cost must exceed the fast machines'.
        per_set = [t / s for t, s in zip(result.machine_times, shares)]
        assert per_set[2] > per_set[0]
