"""Regression tests for the dtype-capacity guards.

Node ids travel as ``int32`` through the flat CSR layout (store, wire,
samplers); marginal counts travel as ``int64``.  These tests pin the two
guards that keep those widths from wrapping silently once the vectorized
generators push collections toward the boundaries:

* :class:`~repro.ris.flat.FlatRRCollection` rejects graphs whose node
  ids cannot fit ``int32`` *before* allocating anything;
* the coverage kernel rejects non-``int64`` counts buffers, whose
  in-place decrements would otherwise overflow without a warning.

The near-boundary cases monkeypatch :data:`repro.ris.flat.MAX_NODES`
down so a collection can actually be constructed on either side of the
limit without multi-gigabyte allocations.
"""

import numpy as np
import pytest

from repro.coverage.kernel import apply_sparse_delta, mark_and_decrement
from repro.ris import FlatRRCollection, make_sampler
from repro.ris import flat as flat_module
from repro.ris.flat import MAX_NODES


class TestNodeIdCapacity:
    def test_limit_is_int32_id_width(self):
        # Ids lie in [0, num_nodes), so num_nodes == 2**31 is the last
        # size whose largest id (2**31 - 1) still fits int32.
        assert MAX_NODES == 2**31
        assert np.iinfo(np.int32).max == MAX_NODES - 1

    def test_over_limit_raises_before_allocating(self):
        # 2**40 nodes would need ~8 TiB of inverted-index offsets alone;
        # the guard must fire fast, not after an allocation attempt.
        with pytest.raises(ValueError, match="int32"):
            FlatRRCollection(2**40)
        with pytest.raises(ValueError, match="int32"):
            FlatRRCollection(MAX_NODES + 1)

    def test_near_boundary_collection(self, monkeypatch):
        monkeypatch.setattr(flat_module, "MAX_NODES", 1000)
        with pytest.raises(ValueError, match="int32"):
            FlatRRCollection(1001)
        # Exactly at the patched limit: fully usable on both sides of
        # the id range, including the largest representable id.
        store = FlatRRCollection(1000)
        store.append_arrays(
            np.asarray([0, 999, 500, 999], dtype=np.int64),
            np.asarray([0, 2, 4], dtype=np.int64),
            edges_examined=np.asarray([3, 4]),
        )
        assert store.num_sets == 2
        assert store.nodes.dtype == np.int32
        np.testing.assert_array_equal(store.get(0), [0, 999])
        np.testing.assert_array_equal(store.sets_containing(999), [0, 1])

    def test_out_of_range_ids_still_rejected(self):
        store = FlatRRCollection(10)
        with pytest.raises(ValueError, match="outside"):
            store.append_arrays(
                np.asarray([3, 10], dtype=np.int64),
                np.asarray([0, 2], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )


class TestCountsDtypeGuard:
    @pytest.fixture
    def store(self, small_wc_graph):
        store = FlatRRCollection(small_wc_graph.num_nodes)
        sampler = make_sampler(small_wc_graph, model="ic", method="vectorized")
        from repro.ris import append_batch

        append_batch(store, sampler.sample_batch(np.random.default_rng(0), 200))
        return store

    def test_mark_and_decrement_rejects_int32_counts(self, store):
        covered = np.zeros(store.num_sets, dtype=bool)
        counts = store.coverage_counts().astype(np.int32)
        with pytest.raises(TypeError, match="int64"):
            mark_and_decrement(store, 0, covered, counts)
        # The guard fires before any mutation.
        assert not covered.any()

    def test_mark_and_decrement_accepts_int64(self, store):
        covered = np.zeros(store.num_sets, dtype=bool)
        counts = store.coverage_counts()
        assert counts.dtype == np.int64
        gained = mark_and_decrement(store, 0, covered, counts)
        assert gained == covered.sum()

    def test_apply_sparse_delta_rejects_int32_counts(self):
        counts = np.zeros(5, dtype=np.int32)
        with pytest.raises(TypeError, match="int64"):
            apply_sparse_delta(
                counts, np.asarray([1, 2]), np.asarray([3, 4], dtype=np.int64)
            )

    def test_apply_sparse_delta_accepts_int64(self):
        counts = np.zeros(5, dtype=np.int64)
        apply_sparse_delta(counts, np.asarray([1, 2]), np.asarray([3, 4], dtype=np.int64))
        assert counts.tolist() == [0, 3, 4, 0, 0]
