"""Unit tests for the cluster's shape and the executor's metering of it."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.cluster import (
    COMPUTATION,
    GENERATION,
    BroadcastPhase,
    GatherPhase,
    GeneratePhase,
    MapPhase,
    MasterPhase,
    NetworkModel,
    SimulatedCluster,
    SimulatedExecutor,
    split_count,
)
from repro.ris import FlatRRCollection


def executor_on(*args, **kwargs) -> SimulatedExecutor:
    return SimulatedExecutor(SimulatedCluster(*args, **kwargs))


class TestTimer:
    def test_timed_returns_result_and_time(self):
        clock = itertools.count(start=0.0, step=1.0)
        executor = executor_on(2, seed=0, clock=lambda: next(clock))
        result, elapsed = executor.timed(lambda: 41, 1)
        assert result == 41
        assert elapsed == 1.0

    def test_master_is_metered_without_slowdown(self):
        clock = itertools.count(start=0.0, step=1.0)
        executor = executor_on(1, seed=0, clock=lambda: next(clock), slowdowns=[5.0])
        assert executor.timed(lambda: None, 0)[1] == 5.0
        assert executor.timed(lambda: None)[1] == 1.0


class TestClusterBasics:
    def test_machine_count(self):
        cluster = SimulatedCluster(4, seed=0)
        assert cluster.num_machines == 4

    def test_requires_at_least_one_machine(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_repr(self):
        assert repr(SimulatedCluster(3)) == (
            "SimulatedCluster(num_machines=3, network='shared-memory')"
        )

    def test_shape_is_a_frozen_value(self):
        cluster = SimulatedCluster(3, seed=5)
        assert cluster == SimulatedCluster(3, seed=5)
        assert cluster != SimulatedCluster(3, seed=6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cluster.seed = 6

    @pytest.mark.parametrize("seed", [-1, 1.5, np.random.SeedSequence(0)])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises((TypeError, ValueError)):
            SimulatedCluster(2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert SimulatedCluster(2, seed=np.int64(7)).seed == 7

    def test_machines_draw_independent_sets(self, small_wc_graph):
        """Machines are coordinates: each draws its own sets from one seed."""
        executor = SimulatedExecutor(SimulatedCluster(3, seed=0), graph=small_wc_graph)
        stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(3)]
        executor.run_phase(GeneratePhase("gen", counts=(30, 30, 30), targets=stores))
        contents = {tuple(store.nodes.tolist()) for store in stores}
        assert len(contents) == 3

    def test_reproducible_for_fixed_seed(self, small_wc_graph):
        drawn = []
        for __ in range(2):
            executor = SimulatedExecutor(SimulatedCluster(3, seed=5), graph=small_wc_graph)
            stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(3)]
            executor.run_phase(GeneratePhase("gen", counts=(9, 8, 7), targets=stores))
            drawn.append([store.nodes.tolist() for store in stores])
        assert drawn[0] == drawn[1]

    def test_split_count_even(self):
        assert split_count(8, 4) == [2, 2, 2, 2]

    def test_split_count_remainder(self):
        shares = split_count(10, 4)
        assert sum(shares) == 10
        assert max(shares) - min(shares) <= 1

    def test_split_count_fewer_items_than_machines(self):
        assert split_count(2, 4) == [1, 1, 0, 0]


class TestMeteredExecution:
    def test_map_returns_in_machine_order(self):
        executor = executor_on(3, seed=0)
        results = executor.run_phase(MapPhase("ids", lambda mid: mid)).results
        assert results == [0, 1, 2]

    def test_map_records_phase(self):
        executor = executor_on(2, seed=0)
        executor.run_phase(MapPhase("work", lambda mid: sum(range(1000)), category=GENERATION))
        assert len(executor.metrics.phases) == 1
        assert executor.metrics.phases[0].category == GENERATION
        assert len(executor.metrics.phases[0].machine_times) == 2

    def test_map_meters_each_machine_times_its_slowdown(self):
        clock = itertools.count(start=0.0, step=1.0)
        executor = executor_on(2, seed=0, clock=lambda: next(clock), slowdowns=[1.0, 3.0])
        result = executor.run_phase(MapPhase("work", lambda mid: None))
        assert result.machine_times == (1.0, 3.0)
        assert result.parallel_time == 3.0

    def test_run_on_master_records_computation(self):
        executor = executor_on(2, seed=0)
        value = executor.run_phase(MasterPhase("merge", lambda: 42)).results
        assert value == 42
        assert executor.metrics.computation_time >= 0.0
        assert executor.metrics.phases[-1].category == COMPUTATION

    def test_executors_on_one_shape_keep_separate_books(self):
        cluster = SimulatedCluster(2, seed=0)
        first, second = SimulatedExecutor(cluster), SimulatedExecutor(cluster)
        first.run_phase(MasterPhase("merge", lambda: None))
        assert len(first.metrics.phases) == 1
        assert second.metrics.phases == []


class TestCommunication:
    def test_gather_charges_network(self):
        net = NetworkModel(bandwidth=1000.0, latency=0.1)
        executor = executor_on(2, network=net, seed=0)
        executor.run_phase(GatherPhase("g", (1000, 2000)))
        assert executor.metrics.communication_time == pytest.approx(3.2)
        assert executor.metrics.total_bytes == 3000

    def test_gather_validates_payload_count(self):
        executor = executor_on(2, seed=0)
        with pytest.raises(ValueError, match="payload sizes"):
            executor.run_phase(GatherPhase("g", (100,)))

    def test_broadcast_charges_per_slave(self):
        net = NetworkModel(bandwidth=1000.0, latency=0.1)
        executor = executor_on(3, network=net, seed=0)
        executor.run_phase(BroadcastPhase("b", 100))
        assert executor.metrics.communication_time == pytest.approx(0.6)
        assert executor.metrics.total_bytes == 300

    def test_record_transfer_is_the_gather_price(self):
        net = NetworkModel(bandwidth=1000.0, latency=0.1)
        executor = executor_on(2, network=net, seed=0)
        executor.record_transfer("t", [1000, 2000])
        executor.run_phase(GatherPhase("g", (1000, 2000)))
        first, second = executor.metrics.phases
        assert (first.parallel_time, first.num_bytes) == (second.parallel_time, second.num_bytes)

    def test_default_network_is_shared_memory(self):
        cluster = SimulatedCluster(1, seed=0)
        assert cluster.network.name == "shared-memory"
        assert executor_on(1).network.name == "shared-memory"
