"""Failure-injection tests: worker errors surface with attribution."""

import pytest

from repro.cluster import MachineFailure, MapPhase, SimulatedCluster, SimulatedExecutor


class TestMachineFailure:
    def test_failure_carries_machine_id_and_label(self):
        executor = SimulatedExecutor(SimulatedCluster(3, seed=0))

        def work(mid):
            if mid == 1:
                raise ValueError("disk on fire")
            return mid

        with pytest.raises(MachineFailure) as info:
            executor.run_phase(MapPhase("risky-phase", work))
        assert info.value.machine_id == 1
        assert info.value.label == "risky-phase"
        assert isinstance(info.value.__cause__, ValueError)

    def test_no_phase_recorded_on_failure(self):
        executor = SimulatedExecutor(SimulatedCluster(2, seed=0))

        def work(mid):
            raise RuntimeError("boom")

        with pytest.raises(MachineFailure):
            executor.run_phase(MapPhase("phase", work))
        assert executor.metrics.phases == []

    def test_successful_map_unaffected(self):
        executor = SimulatedExecutor(SimulatedCluster(2, seed=0))
        results = executor.run_phase(MapPhase("fine", lambda mid: mid)).results
        assert results == [0, 1]

    def test_failure_mid_algorithm_attributes_machine(self, small_wc_graph):
        """A store that errors during the map stage surfaces as a
        MachineFailure naming the guilty machine, not an anonymous
        traceback."""
        from tests.oracle import RRCollection, reference_newgreedi

        class PoisonedStore(RRCollection):
            def coverage_counts(self, start: int = 0):
                raise OSError("simulated storage failure")

        executor = SimulatedExecutor(SimulatedCluster(2, seed=0))
        healthy = RRCollection(small_wc_graph.num_nodes)
        poisoned = PoisonedStore(small_wc_graph.num_nodes)
        with pytest.raises(MachineFailure) as info:
            reference_newgreedi(executor, 2, [healthy, poisoned])
        assert info.value.machine_id == 1
        assert isinstance(info.value.__cause__, OSError)

    def test_flat_conversion_failure_attributes_machine(self, small_wc_graph):
        """Reading a store's CSR arrays (its inverted index is built on
        first read) runs inside the metered reset phase, so a store erroring
        there is attributed too."""
        import numpy as np

        from repro.coverage import newgreedi
        from repro.ris import FlatRRCollection

        class PoisonedStore(FlatRRCollection):
            @property
            def inv_sets(self):
                raise OSError("simulated storage failure")

        executor = SimulatedExecutor(SimulatedCluster(2, seed=0))
        healthy = FlatRRCollection(small_wc_graph.num_nodes)
        poisoned = PoisonedStore(small_wc_graph.num_nodes)
        for store in (healthy, poisoned):
            store.append_arrays(np.asarray([0]), np.asarray([0, 1]), np.zeros(1))
        with pytest.raises(MachineFailure) as info:
            newgreedi(executor, 2, stores=[healthy, poisoned])
        assert info.value.machine_id == 1
        assert isinstance(info.value.__cause__, OSError)
