"""FlatRRCollection repair surface: affected_sets / replace_sets."""

import numpy as np
import pytest

from repro.ris import make_sampler
from repro.ris.flat import FlatRRCollection, append_batch, gather_rows
from repro.ris.rrset import FlatBatch, concat_batches, sample_set_range


@pytest.fixture
def store(small_wc_graph):
    sampler = make_sampler(small_wc_graph, model="ic", method="bfs")
    store = FlatRRCollection(small_wc_graph.num_nodes)
    append_batch(store, sample_set_range(sampler, seed=3, machine_id=0, ids=range(40)))
    return store


def snapshot(store):
    return (
        store.nodes.copy(),
        store.offsets.copy(),
        int(store.total_edges_examined),
    )


def make_batch(sets, edges=None):
    """Build a FlatBatch from explicit per-set node lists."""
    nodes = np.concatenate([np.asarray(s, dtype=np.int32) for s in sets]) if any(
        len(s) for s in sets
    ) else np.zeros(0, dtype=np.int32)
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=offsets[1:])
    roots = np.array([s[0] if len(s) else -1 for s in sets], dtype=np.int64)
    if edges is None:
        edges = [len(s) for s in sets]
    return FlatBatch(nodes, offsets, roots, np.asarray(edges, dtype=np.int64))


class TestAffectedSets:
    def test_none_means_every_set(self, store):
        assert np.array_equal(
            store.affected_sets(None), np.arange(store.num_sets, dtype=np.int64)
        )

    def test_matches_membership_scan(self, store):
        touched = np.array([1, 7, 13], dtype=np.int64)
        expected = sorted(
            i
            for i in range(store.num_sets)
            if np.intersect1d(store.get(i), touched).size
        )
        assert store.affected_sets(touched).tolist() == expected

    def test_out_of_range_touched_ignored(self, store):
        inside = store.affected_sets(np.array([2], dtype=np.int64))
        padded = store.affected_sets(
            np.array([-5, 2, store.num_nodes + 10], dtype=np.int64)
        )
        assert np.array_equal(inside, padded)


class TestReplaceSets:
    def test_rewrites_only_named_ids(self, store):
        nodes_before, offsets_before, _ = snapshot(store)
        ids = np.array([3, 11, 12], dtype=np.int64)
        batch = make_batch([[5, 6, 7], [0], [1, 2]])
        store.replace_sets(ids, batch)
        assert store.num_sets == offsets_before.size - 1
        assert store.get(3).tolist() == [5, 6, 7]
        assert store.get(11).tolist() == [0]
        assert store.get(12).tolist() == [1, 2]
        untouched = np.setdiff1d(np.arange(store.num_sets), ids)
        old_rows = gather_rows(nodes_before, offsets_before, untouched)
        new_rows = gather_rows(store.nodes, store.offsets, untouched)
        assert np.array_equal(old_rows, new_rows)

    def test_updates_edge_accounting(self, store):
        before = store.total_edges_examined
        ids = np.array([0], dtype=np.int64)
        old = int(store.edges_examined_upto(1))
        store.replace_sets(ids, make_batch([[4]], edges=[99]))
        assert store.total_edges_examined == before - old + 99

    def test_refreshes_inverted_index(self, store):
        probe = int(store.get(5)[0])
        store.replace_sets(np.array([5], dtype=np.int64), make_batch([[probe + 1]]))
        assert 5 not in store.sets_containing(probe).tolist() or probe in store.get(5)
        assert 5 in store.sets_containing(probe + 1).tolist()

    def test_rejects_non_ascending_ids(self, store):
        with pytest.raises(ValueError, match="ascending"):
            store.replace_sets(
                np.array([4, 2], dtype=np.int64), make_batch([[1], [2]])
            )

    def test_rejects_count_mismatch(self, store):
        with pytest.raises(ValueError, match="batch has"):
            store.replace_sets(np.array([0, 1], dtype=np.int64), make_batch([[1]]))

    def test_rejects_out_of_range_ids(self, store):
        with pytest.raises(IndexError):
            store.replace_sets(
                np.array([store.num_sets], dtype=np.int64), make_batch([[1]])
            )

    def test_empty_ids_noop(self, store):
        before = snapshot(store)
        store.replace_sets(np.zeros(0, dtype=np.int64), make_batch([]))
        after = snapshot(store)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])

    def test_repair_equals_per_set_regeneration(self, small_wc_graph, store):
        # Replacing ids with their own per-set streams is a no-op on bytes:
        # the defining property behind differential repair testing.
        sampler = make_sampler(small_wc_graph, model="ic", method="bfs")
        nodes_before, offsets_before, _ = snapshot(store)
        ids = np.arange(10, 20, dtype=np.int64)
        store.replace_sets(
            ids, sample_set_range(sampler, seed=3, machine_id=0, ids=ids)
        )
        assert np.array_equal(store.nodes, nodes_before)
        assert np.array_equal(store.offsets, offsets_before)


class TestInvalidateAndCompact:
    def test_views_refresh_after_repair(self, store):
        # Prefix views must be rebuilt after in-place mutation; a fresh
        # view over the repaired store sees the new contents.
        from repro.ris.flat import FlatPrefixView

        store.replace_sets(np.array([2], dtype=np.int64), make_batch([[8, 9]]))
        view = FlatPrefixView(store, limit=5)
        assert view.get(2).tolist() == [8, 9]
        assert 2 in view.sets_containing(8).tolist()


class TestTombstoneCount:
    def test_replacing_a_set_appended_empty(self):
        store = FlatRRCollection(8)
        store.append_arrays(np.array([3], dtype=np.int32), np.array([0, 0, 1]), np.zeros(2))
        assert store.offsets.tolist() == [0, 0, 1]
        store.replace_sets(np.array([0]), make_batch([[5]]))
        assert store.offsets.tolist() == [0, 1, 2]
        assert store.nodes.tolist() == [5, 3]
        assert store.num_sets == 2


class TestConcatBatches:
    def test_rebases_offsets(self):
        a = make_batch([[1, 2], [3]])
        b = make_batch([[4], [5, 6, 7]])
        merged = concat_batches([a, b])
        assert merged.count == 4
        assert merged.offsets.tolist() == [0, 2, 3, 4, 7]
        assert merged.nodes.tolist() == [1, 2, 3, 4, 5, 6, 7]

    def test_empty(self):
        merged = concat_batches([])
        assert merged.count == 0
        assert merged.offsets.tolist() == [0]
