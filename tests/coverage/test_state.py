"""CoverageState: incremental wave ingestion versus the full-rebuild oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulatedCluster, SimulatedExecutor
from repro.coverage import CoverageState
from repro.coverage.kernel import apply_sparse_delta, sparse_coverage_delta
from repro.ris import make_collection, make_sampler
from tests.oracle import STORES


def grown_stores(graph, rng, num_machines, backend="flat"):
    """Per-machine stores plus a callable growing them by one wave."""
    sampler = make_sampler(graph, model="ic", method="bfs")
    stores = [STORES[backend](graph.num_nodes) for _ in range(num_machines)]

    def grow(counts):
        for store, count in zip(stores, counts):
            for sample in sampler.sample_many(count, rng):
                store.add(sample)
        return stores

    return stores, grow


@pytest.mark.parametrize("backend", ["flat", "reference"])
def test_incremental_ingest_matches_rebuild(small_wc_graph, rng, backend):
    cluster = SimulatedCluster(3, seed=5)
    executor = SimulatedExecutor(cluster)
    stores, grow = grown_stores(small_wc_graph, rng, 3, backend=backend)
    state = CoverageState(small_wc_graph.num_nodes, 3)

    for wave, counts in enumerate([(40, 30, 20), (10, 0, 25), (0, 0, 0), (7, 7, 7)]):
        grow(counts)
        state.ingest(executor, stores, label=f"wave-{wave}")
        np.testing.assert_array_equal(state.counts, state.rebuild_from(stores))
        assert state.watermarks == [store.num_sets for store in stores]


def test_ingest_phases_and_bytes(small_wc_graph, rng):
    """One map, one gather (the compressed sparse vector), one reduce."""
    from repro.ris.wire import tuple_vector_nbytes

    cluster = SimulatedCluster(2, seed=5)
    executor = SimulatedExecutor(cluster)
    stores, grow = grown_stores(small_wc_graph, rng, 2)
    grow((25, 25))
    state = CoverageState(small_wc_graph.num_nodes, 2)
    state.ingest(executor, stores, label="wave")

    labels = [p.label for p in cluster.metrics.phases]
    assert labels == ["wave/map", "wave/gather", "wave/reduce"]
    expected_bytes = 0
    for store in stores:
        counts = store.coverage_counts()
        nodes = np.flatnonzero(counts)
        expected_bytes += tuple_vector_nbytes(nodes, counts[nodes])
    assert cluster.metrics.total_bytes == expected_bytes
    # The compressed vector must beat the raw 8-bytes-per-tuple format.
    raw_bytes = sum(
        8 * int(np.count_nonzero(store.coverage_counts())) for store in stores
    )
    assert 0 < expected_bytes < raw_bytes


def test_ingest_without_new_sets_is_free(small_wc_graph, rng):
    cluster = SimulatedCluster(2, seed=5)
    executor = SimulatedExecutor(cluster)
    stores, grow = grown_stores(small_wc_graph, rng, 2)
    grow((10, 10))
    state = CoverageState(small_wc_graph.num_nodes, 2)
    state.ingest(executor, stores)
    phases_before = len(cluster.metrics.phases)
    state.ingest(executor, stores)
    assert len(cluster.metrics.phases) == phases_before


def test_local_ingest_moves_no_bytes(small_wc_graph, rng):
    cluster = SimulatedCluster(1, seed=5)
    executor = SimulatedExecutor(cluster)
    stores, grow = grown_stores(small_wc_graph, rng, 1)
    grow((30,))
    state = CoverageState(small_wc_graph.num_nodes, 1)
    state.ingest(executor, stores, communicate=False)
    np.testing.assert_array_equal(state.counts, state.rebuild_from(stores))
    assert cluster.metrics.total_bytes == 0
    assert cluster.metrics.communication_time == 0.0


def test_selection_counts_is_reusable_scratch(small_wc_graph, rng):
    cluster = SimulatedCluster(2, seed=5)
    executor = SimulatedExecutor(cluster)
    stores, grow = grown_stores(small_wc_graph, rng, 2)
    grow((20, 20))
    state = CoverageState(small_wc_graph.num_nodes, 2)
    state.ingest(executor, stores)

    scratch = state.selection_counts()
    np.testing.assert_array_equal(scratch, state.counts)
    scratch[:] = -1  # a selection round trashes the scratch...
    np.testing.assert_array_equal(state.counts, state.rebuild_from(stores))
    again = state.selection_counts()  # ...and the next borrow is pristine
    assert again is scratch
    np.testing.assert_array_equal(again, state.counts)


def test_state_dict_round_trip(small_wc_graph, rng):
    cluster = SimulatedCluster(2, seed=5)
    executor = SimulatedExecutor(cluster)
    stores, grow = grown_stores(small_wc_graph, rng, 2)
    grow((15, 5))
    state = CoverageState(small_wc_graph.num_nodes, 2)
    state.ingest(executor, stores)

    restored = CoverageState(small_wc_graph.num_nodes, 2)
    restored.load_state_dict(state.state_dict())
    np.testing.assert_array_equal(restored.counts, state.counts)
    assert restored.watermarks == state.watermarks


def test_load_state_dict_validates_shape():
    state = CoverageState(10, 2)
    with pytest.raises(ValueError, match="nodes"):
        state.load_state_dict(
            {"counts": np.zeros(5, dtype=np.int64), "watermarks": np.zeros(2)}
        )
    with pytest.raises(ValueError, match="machines"):
        state.load_state_dict(
            {"counts": np.zeros(10, dtype=np.int64), "watermarks": np.zeros(3)}
        )


def test_constructor_and_ingest_validation():
    with pytest.raises(ValueError, match="num_nodes"):
        CoverageState(0, 1)
    with pytest.raises(ValueError, match="num_machines"):
        CoverageState(10, 0)
    state = CoverageState(10, 2)
    cluster = SimulatedCluster(2, seed=0)
    with pytest.raises(ValueError, match="stores"):
        state.ingest(SimulatedExecutor(cluster), [make_collection(10, "flat")])


def test_sparse_delta_round_trip(small_wc_graph, rng):
    """kernel-level check: delta-apply equals direct aggregation."""
    sampler = make_sampler(small_wc_graph, model="ic", method="bfs")
    store = make_collection(small_wc_graph.num_nodes, "flat")
    for sample in sampler.sample_many(50, rng):
        store.add(sample)

    counts = store.coverage_counts(start=0).copy()
    nodes, deltas = sparse_coverage_delta(store, start=20)
    partial = store.coverage_counts(start=0) - store.coverage_counts(start=20)
    rebuilt = partial.copy()
    apply_sparse_delta(rebuilt, nodes, deltas)
    np.testing.assert_array_equal(rebuilt, counts)
    apply_sparse_delta(rebuilt, nodes, deltas, sign=-1)
    np.testing.assert_array_equal(rebuilt, partial)
    with pytest.raises(ValueError, match="sign"):
        apply_sparse_delta(rebuilt, nodes, deltas, sign=0)
