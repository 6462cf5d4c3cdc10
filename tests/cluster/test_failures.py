"""Failure-injection tests: worker errors surface with attribution."""

import pytest

from repro.cluster import COMPUTATION, MachineFailure, SimulatedCluster


class TestMachineFailure:
    def test_failure_carries_machine_id_and_label(self):
        cluster = SimulatedCluster(3, seed=0)

        def work(machine):
            if machine.machine_id == 1:
                raise ValueError("disk on fire")
            return machine.machine_id

        with pytest.raises(MachineFailure) as info:
            cluster.map(COMPUTATION, "risky-phase", work)
        assert info.value.machine_id == 1
        assert info.value.label == "risky-phase"
        assert isinstance(info.value.__cause__, ValueError)

    def test_no_phase_recorded_on_failure(self):
        cluster = SimulatedCluster(2, seed=0)

        def work(machine):
            raise RuntimeError("boom")

        with pytest.raises(MachineFailure):
            cluster.map(COMPUTATION, "phase", work)
        assert cluster.metrics.phases == []

    def test_successful_map_unaffected(self):
        cluster = SimulatedCluster(2, seed=0)
        results = cluster.map(COMPUTATION, "fine", lambda m: m.machine_id)
        assert results == [0, 1]

    def test_failure_mid_algorithm_attributes_machine(self, small_wc_graph):
        """A store that errors during the map stage surfaces as a
        MachineFailure naming the guilty machine, not an anonymous
        traceback."""
        from tests.oracle import RRCollection, reference_newgreedi

        class PoisonedStore(RRCollection):
            def coverage_counts(self, start: int = 0):
                raise OSError("simulated storage failure")

        cluster = SimulatedCluster(2, seed=0)
        healthy = RRCollection(small_wc_graph.num_nodes)
        poisoned = PoisonedStore(small_wc_graph.num_nodes)
        with pytest.raises(MachineFailure) as info:
            reference_newgreedi(cluster, 2, [healthy, poisoned])
        assert info.value.machine_id == 1
        assert isinstance(info.value.__cause__, OSError)

    def test_flat_conversion_failure_attributes_machine(self, small_wc_graph):
        """The CSR conversion of a non-flat store runs inside the metered
        reset phase, so a store erroring there is attributed too."""
        import numpy as np

        from repro.coverage import newgreedi
        from repro.ris.rrset import RRSample
        from tests.oracle import RRCollection

        class PoisonedStore(RRCollection):
            def get(self, idx: int):
                raise OSError("simulated storage failure")

        cluster = SimulatedCluster(2, seed=0)
        sample = RRSample(
            nodes=np.asarray([0], dtype=np.int32), root=0, edges_examined=0
        )
        healthy = RRCollection(small_wc_graph.num_nodes)
        healthy.add(sample)
        poisoned = PoisonedStore(small_wc_graph.num_nodes)
        poisoned.add(sample)
        with pytest.raises(MachineFailure) as info:
            newgreedi(cluster, 2, stores=[healthy, poisoned])
        assert info.value.machine_id == 1
        assert isinstance(info.value.__cause__, OSError)
