"""CoverageState.repair: retraction deltas versus the full-rebuild oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulatedCluster, SimulatedExecutor
from repro.coverage import CoverageState
from repro.ris import make_collection, make_sampler
from repro.ris.flat import append_batch, gather_rows
from repro.ris.rrset import sample_set_range


def per_set_stores(graph, num_machines, seed=3, count=30):
    sampler = make_sampler(graph, model="ic", method="bfs")
    stores = [make_collection(graph.num_nodes, "flat") for _ in range(num_machines)]
    for mid, store in enumerate(stores):
        append_batch(store, sample_set_range(sampler, seed, mid, range(count)))
    return sampler, stores


def ingested_state(graph, stores):
    cluster = SimulatedCluster(len(stores), seed=5)
    executor = SimulatedExecutor(cluster)
    state = CoverageState(graph.num_nodes, len(stores))
    state.ingest(executor, stores)
    return state


def repair_machine(state, store, sampler, machine_id, ids, seed=3):
    """Regenerate ``ids`` in place and feed the retraction to ``state``."""
    ids = np.asarray(ids, dtype=np.int64)
    old_nodes = gather_rows(store.nodes, store.offsets, ids)
    batch = sample_set_range(sampler, seed, machine_id, ids)
    store.replace_sets(ids, batch)
    state.repair(machine_id, old_nodes, batch.nodes)


class TestRepair:
    def test_matches_rebuild_after_in_place_replacement(self, small_wc_graph):
        sampler, stores = per_set_stores(small_wc_graph, 3)
        state = ingested_state(small_wc_graph, stores)
        # Repairing against the *same* graph regenerates identical bytes,
        # so counts are provably unchanged — and equal to the oracle.
        before = state.counts.copy()
        for mid, ids in enumerate([[0, 1, 2], [5, 9], [29]]):
            repair_machine(state, stores[mid], sampler, mid, ids)
        np.testing.assert_array_equal(state.counts, before)
        np.testing.assert_array_equal(state.counts, state.rebuild_from(stores))

    def test_matches_rebuild_with_changed_contents(self, small_wc_graph):
        sampler, stores = per_set_stores(small_wc_graph, 2)
        state = ingested_state(small_wc_graph, stores)
        # Force genuinely different contents by repairing from a different
        # seed stream; counts must still track the stores exactly.
        for mid, ids in enumerate([[3, 4, 5, 11], [0, 19]]):
            repair_machine(state, stores[mid], sampler, mid, ids, seed=99)
        np.testing.assert_array_equal(state.counts, state.rebuild_from(stores))
        assert state.watermarks == [store.num_sets for store in stores]

    def test_only_below_watermark_rows_need_retraction(self, small_wc_graph):
        sampler, stores = per_set_stores(small_wc_graph, 1, count=20)
        state = ingested_state(small_wc_graph, stores)
        assert state.watermarks == [20]
        # Grow the store beyond the watermark, then repair a mix of
        # ingested and never-ingested sets: only the ingested prefix is
        # retracted (the pool's searchsorted split).
        append_batch(stores[0], sample_set_range(sampler, 3, 0, range(20, 30)))
        ids = np.array([5, 6, 24, 25], dtype=np.int64)
        old_nodes = gather_rows(stores[0].nodes, stores[0].offsets, ids)
        old_bounds = np.concatenate(
            ([0], np.cumsum(stores[0].offsets[ids + 1] - stores[0].offsets[ids]))
        )
        batch = sample_set_range(sampler, 99, 0, ids)
        stores[0].replace_sets(ids, batch)
        below = int(np.searchsorted(ids, state.watermarks[0]))
        assert below == 2
        state.repair(0, old_nodes[: old_bounds[below]], batch.nodes[: batch.offsets[below]])
        # After ingesting the tail, counts equal the oracle again.
        cluster = SimulatedCluster(1, seed=5)
        state.ingest(SimulatedExecutor(cluster), stores)
        np.testing.assert_array_equal(state.counts, state.rebuild_from(stores))

    def test_rejects_bad_machine_id(self, small_wc_graph):
        state = CoverageState(small_wc_graph.num_nodes, 2)
        with pytest.raises(ValueError, match="out of range"):
            state.repair(2, np.zeros(0), np.zeros(0))

    def test_fork_copy_on_write_isolation(self, small_wc_graph):
        sampler, stores = per_set_stores(small_wc_graph, 1)
        state = ingested_state(small_wc_graph, stores)
        child = state.fork()
        assert child.counts is state.counts  # shared until first write
        parent_before = state.counts.copy()
        repair_machine(child, stores[0], sampler, 0, [0, 1], seed=7)
        # The child copied before mutating; the parent still sees the
        # pristine aggregate.
        assert child.counts is not state.counts
        np.testing.assert_array_equal(state.counts, parent_before)
        np.testing.assert_array_equal(child.counts, child.rebuild_from(stores))
