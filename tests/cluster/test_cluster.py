"""Unit tests for the simulated cluster and machines."""

import itertools

import numpy as np
import pytest

from repro.cluster import (
    COMPUTATION,
    GENERATION,
    Machine,
    NetworkModel,
    SimulatedCluster,
)


class TestMachine:
    def test_run_returns_result_and_time(self):
        clock = itertools.count(start=0.0, step=1.0)
        machine = Machine(0, np.random.default_rng(0), clock=lambda: next(clock))
        result, elapsed = machine.run(lambda m: m.machine_id + 41)
        assert result == 41
        assert elapsed == 1.0

    def test_repr(self):
        machine = Machine(1, np.random.default_rng(0))
        assert "id=1" in repr(machine)


class TestClusterBasics:
    def test_machine_count(self):
        cluster = SimulatedCluster(4, seed=0)
        assert cluster.num_machines == 4

    def test_requires_at_least_one_machine(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_machines_have_independent_rngs(self):
        cluster = SimulatedCluster(3, seed=0)
        draws = [m.rng.random() for m in cluster.machines]
        assert len(set(draws)) == 3

    def test_reproducible_for_fixed_seed(self):
        first = SimulatedCluster(3, seed=5)
        second = SimulatedCluster(3, seed=5)
        for a, b in zip(first.machines, second.machines):
            assert a.rng.random() == b.rng.random()

    def test_split_count_even(self):
        cluster = SimulatedCluster(4, seed=0)
        assert cluster.split_count(8) == [2, 2, 2, 2]

    def test_split_count_remainder(self):
        cluster = SimulatedCluster(4, seed=0)
        shares = cluster.split_count(10)
        assert sum(shares) == 10
        assert max(shares) - min(shares) <= 1

    def test_split_count_fewer_items_than_machines(self):
        cluster = SimulatedCluster(4, seed=0)
        assert cluster.split_count(2) == [1, 1, 0, 0]


class TestMeteredExecution:
    def test_map_returns_in_machine_order(self):
        cluster = SimulatedCluster(3, seed=0)
        results = cluster.map(COMPUTATION, "ids", lambda m: m.machine_id)
        assert results == [0, 1, 2]

    def test_map_records_phase(self):
        cluster = SimulatedCluster(2, seed=0)
        cluster.map(GENERATION, "work", lambda m: sum(range(1000)))
        assert len(cluster.metrics.phases) == 1
        assert cluster.metrics.phases[0].category == GENERATION
        assert len(cluster.metrics.phases[0].machine_times) == 2

    def test_run_on_master_records_computation(self):
        cluster = SimulatedCluster(2, seed=0)
        value = cluster.run_on_master("merge", lambda: 42)
        assert value == 42
        assert cluster.metrics.computation_time >= 0.0
        assert cluster.metrics.phases[-1].category == COMPUTATION


class TestCommunication:
    def test_gather_charges_network(self):
        net = NetworkModel(bandwidth=1000.0, latency=0.1)
        cluster = SimulatedCluster(2, network=net, seed=0)
        cluster.gather("g", [1000, 2000])
        assert cluster.metrics.communication_time == pytest.approx(3.2)
        assert cluster.metrics.total_bytes == 3000

    def test_gather_validates_payload_count(self):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError, match="payload sizes"):
            cluster.gather("g", [100])

    def test_broadcast_charges_per_slave(self):
        net = NetworkModel(bandwidth=1000.0, latency=0.1)
        cluster = SimulatedCluster(3, network=net, seed=0)
        cluster.broadcast("b", 100)
        assert cluster.metrics.communication_time == pytest.approx(0.6)
        assert cluster.metrics.total_bytes == 300

    def test_default_network_is_shared_memory(self):
        cluster = SimulatedCluster(1, seed=0)
        assert cluster.network.name == "shared-memory"
