"""FlatPrefixView: zero-copy prefix windows over a shared flat store.

The warm pool's correctness rests on a view with limit ``c`` being
indistinguishable — node for node, count for count — from a fresh
:class:`FlatRRCollection` holding only the store's first ``c`` sets.
These tests pin that equivalence, the monotone-limit contract, and the
per-set edge accounting (:meth:`edges_examined_upto`) the views read.
"""

import numpy as np
import pytest

from repro.ris import FlatPrefixView, FlatRRCollection, append_batch, make_sampler, pack_samples
from tests.oracle import RRCollection


def drawn_samples(graph, count, seed=0, model="ic"):
    sampler = make_sampler(graph, model)
    return sampler.sample_many(count, np.random.default_rng(seed))


def truncated_copy(store: FlatRRCollection, limit: int) -> FlatRRCollection:
    """A fresh store of ``store``'s first ``limit`` sets, one set per batch."""
    fresh = FlatRRCollection(store.num_nodes)
    for idx in range(limit):
        nodes = store.get(idx)
        per_set = store.edges_examined_upto(idx + 1) - store.edges_examined_upto(idx)
        fresh.append_arrays(nodes, np.asarray([0, nodes.size]), [per_set])
    return fresh


def filled(num_nodes, samples):
    store = FlatRRCollection(num_nodes)
    append_batch(store, pack_samples(samples))
    return store


@pytest.fixture
def store(small_wc_graph):
    return filled(small_wc_graph.num_nodes, drawn_samples(small_wc_graph, 120, seed=5))


class TestPrefixEqualsTruncatedStore:
    @pytest.mark.parametrize("limit", [0, 1, 40, 120])
    def test_protocol_surface_matches(self, store, limit):
        view = FlatPrefixView(store, limit)
        oracle = truncated_copy(store, limit)
        assert view.num_sets == oracle.num_sets == limit
        assert len(view) == limit
        assert view.total_size == oracle.total_size
        assert view.total_edges_examined == oracle.total_edges_examined
        assert np.array_equal(view.nodes, oracle.nodes)
        assert np.array_equal(view.offsets, oracle.offsets)
        for idx in range(limit):
            assert np.array_equal(view.get(idx), oracle.get(idx))

    @pytest.mark.parametrize("limit", [1, 40, 120])
    def test_inverted_index_matches(self, store, limit):
        view = FlatPrefixView(store, limit)
        oracle = truncated_copy(store, limit)
        for node in range(store.num_nodes):
            assert np.array_equal(
                view.sets_containing(node), oracle.sets_containing(node)
            )

    @pytest.mark.parametrize("start", [0, 10])
    def test_coverage_counts_match(self, store, start):
        view = FlatPrefixView(store, 60)
        oracle = truncated_copy(store, 60)
        assert np.array_equal(
            view.coverage_counts(start=start), oracle.coverage_counts(start=start)
        )

    def test_coverage_of_matches(self, store):
        view = FlatPrefixView(store, 75)
        oracle = truncated_copy(store, 75)
        seeds = [0, 3, 17, 42]
        assert view.coverage_of(seeds) == oracle.coverage_of(seeds)

    def test_iteration(self, store):
        view = FlatPrefixView(store, 7)
        sets = list(view)
        assert len(sets) == 7
        assert all(np.array_equal(s, store.get(i)) for i, s in enumerate(sets))


class TestLimits:
    def test_limits_are_monotone(self, store):
        view = FlatPrefixView(store, 10)
        view.set_limit(10)  # no-op allowed
        view.set_limit(50)
        with pytest.raises(ValueError):
            view.set_limit(49)

    def test_limit_cannot_exceed_store(self, store):
        view = FlatPrefixView(store, 0)
        with pytest.raises(ValueError):
            view.set_limit(store.num_sets + 1)

    def test_view_sees_growth_after_creation(self, store, small_wc_graph):
        view = FlatPrefixView(store, store.num_sets)
        before = store.num_sets
        # Reading through the full-limit view borrows the store's index …
        assert view.sets_containing(0) is not None
        append_batch(store, pack_samples(drawn_samples(small_wc_graph, 30, seed=9)))
        # … and the borrowed arrays stay valid after the store grows.
        oracle = truncated_copy(store, before)
        for node in range(0, store.num_nodes, 17):
            assert np.array_equal(
                view.sets_containing(node), oracle.sets_containing(node)
            )
        view.set_limit(store.num_sets)
        assert view.num_sets == before + 30

    def test_zero_limit_view_is_empty(self, store):
        view = FlatPrefixView(store, 0)
        assert view.num_sets == 0
        assert view.total_size == 0
        assert view.total_edges_examined == 0
        assert view.sets_containing(0).size == 0
        assert view.coverage_counts().sum() == 0

    def test_repr_mentions_limit(self, store):
        view = FlatPrefixView(store, 12)
        assert "12" in repr(view)


class TestEdgeAccounting:
    def test_edges_cumsum_is_monotone_and_total(self, store):
        upto = [store.edges_examined_upto(i) for i in range(store.num_sets + 1)]
        assert upto[0] == 0
        assert upto[-1] == store.total_edges_examined
        assert all(a <= b for a, b in zip(upto, upto[1:]))

    def test_round_trip_preserves_totals(self, store):
        # A copy through the oracle's dict store keeps only the aggregate
        # edge counter; a flat store rebuilt from the per-set array keeps
        # every prefix.
        back = RRCollection.from_store(store)
        assert back.total_edges_examined == store.total_edges_examined
        again = FlatRRCollection(store.num_nodes)
        again.append_arrays(store.nodes, store.offsets, store.edges_examined)
        assert again.total_edges_examined == store.total_edges_examined
        for limit in range(store.num_sets + 1):
            assert again.edges_examined_upto(limit) == store.edges_examined_upto(limit)

    def test_upto_range_checked(self, store):
        with pytest.raises(ValueError):
            store.edges_examined_upto(store.num_sets + 1)
        with pytest.raises(ValueError):
            store.edges_examined_upto(-1)

    def test_scalar_batch_is_refused(self):
        """An aggregate count cannot be attributed to sets: refused, and
        the store is left as it was."""
        flat = FlatRRCollection(10)
        nodes = np.asarray([1, 2, 3, 4, 5], dtype=np.int32)
        offsets = np.asarray([0, 2, 3, 5], dtype=np.int64)
        with pytest.raises(ValueError, match="one count per set"):
            flat.append_arrays(nodes, offsets, edges_examined=10)
        assert flat.num_sets == flat.total_edges_examined == 0
        flat.append_arrays(nodes, offsets, edges_examined=[4, 3, 3])
        assert [flat.edges_examined_upto(i) for i in range(4)] == [0, 4, 7, 10]
