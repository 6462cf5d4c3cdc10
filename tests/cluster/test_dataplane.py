"""Zero-copy data plane: shared graph, persistent workers, shm reclamation.

The shared-memory graph export is pinned directly; everything about the
workers comes from :mod:`tests.cluster.transport_suite`, instantiated
here on the ``multiprocessing`` (socketpair) transport and in
``test_socket.py`` on loopback TCP:

* **Bit-identity** — the {copy, zero-copy} x {fork, spawn} matrix
  produces collections and RNG states identical to the simulated backend
  (and hence to each other).
* **Persistence** — the executor's workers live across phases; only a
  lost stream or :meth:`close` replaces them.
* **Reclamation** — the shared-memory block never outlives the run: it
  is gone from ``/dev/shm`` after a normal close, after a ``kill -9``'d
  worker, after an aborted run, and after checkpoint/resume — with no
  ``resource_tracker`` warning at teardown.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graphs.digraph import DirectedGraph, _CSR_FIELDS
from repro.ris import make_sampler

from . import transport_suite as suite
from .transport_suite import shm_segments


# ----------------------------------------------------------------------
# Shared-memory graph export / attach
# ----------------------------------------------------------------------
class TestSharedGraph:
    def test_round_trip_is_bit_identical(self, small_wc_graph):
        with small_wc_graph.to_shared() as handle:
            attached = DirectedGraph.from_shared(handle.spec)
            assert attached.num_nodes == small_wc_graph.num_nodes
            assert attached.num_edges == small_wc_graph.num_edges
            for field in _CSR_FIELDS:
                np.testing.assert_array_equal(
                    getattr(attached, field), getattr(small_wc_graph, field)
                )

    def test_attached_views_are_read_only(self, small_wc_graph):
        with small_wc_graph.to_shared() as handle:
            attached = DirectedGraph.from_shared(handle.spec)
            for field in _CSR_FIELDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(attached, field)[0] = 1

    def test_spec_travels_by_pickle(self, small_wc_graph):
        with small_wc_graph.to_shared() as handle:
            spec = pickle.loads(pickle.dumps(handle.spec))
            attached = DirectedGraph.from_shared(spec)
            np.testing.assert_array_equal(attached.in_indptr, small_wc_graph.in_indptr)

    def test_sampler_on_attached_graph_draws_identically(self, small_wc_graph):
        with small_wc_graph.to_shared() as handle:
            attached = DirectedGraph.from_shared(handle.spec)
            original = make_sampler(small_wc_graph, "ic").sample_batch(
                np.random.default_rng(3), 40
            )
            mirrored = make_sampler(attached, "ic").sample_batch(
                np.random.default_rng(3), 40
            )
        np.testing.assert_array_equal(original.nodes, mirrored.nodes)
        np.testing.assert_array_equal(original.offsets, mirrored.offsets)
        np.testing.assert_array_equal(
            original.edges_examined, mirrored.edges_examined
        )

    def test_unlink_is_idempotent_and_reclaims_the_segment(self, small_wc_graph):
        before = shm_segments()
        handle = small_wc_graph.to_shared()
        assert handle.name in shm_segments() - before
        handle.unlink()
        handle.unlink()  # second call must be a no-op
        assert shm_segments() <= before


# ----------------------------------------------------------------------
# The worker-transport suite on socketpair workers
# ----------------------------------------------------------------------
class TestPoolConformance(suite.ConformanceSuite):
    transport = "multiprocessing"


class TestPersistentPool(suite.LifecycleSuite):
    transport = "multiprocessing"


class TestFallback(suite.FallbackSuite):
    transport = "multiprocessing"


class TestShmReclamation(suite.ShmReclamationSuite):
    transport = "multiprocessing"


class TestWireAccounting(suite.WireAccountingSuite):
    transport = "multiprocessing"
