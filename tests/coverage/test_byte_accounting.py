"""Kernel-independence of the communication accounting.

The paper's traffic numbers (sparse ``(node, decrement)`` tuples, one
broadcast seed id per round) are a property of the *protocol*, not of the
kernel executing the map stage.  These tests pin that down: a NEWGREEDI
run charges byte-for-byte the same communication whether the map stage is
the oracle's dict loop or the flat CSR kernel.
"""

from importlib import import_module

import numpy as np
import pytest

from repro.applications import (
    adaptive_influence_maximization,
    budgeted_influence_maximization,
    profit_maximization,
    seed_minimization,
    targeted_influence_maximization,
)
from repro.cluster import COMMUNICATION, SimulatedCluster
from repro.coverage import greedi, newgreedi
from repro.coverage.newgreedi import SEED_BYTES
from repro.graphs import erdos_renyi, weighted_cascade
from repro.ris import make_sampler
from repro.ris.rrset import RRSample
from repro.ris.wire import tuple_vector_nbytes
from tests.oracle import RRCollection, reference_greedi, reference_newgreedi

MACHINES = 4
# The package re-exports the function under the submodule's name.
newgreedi_module = import_module("repro.coverage.newgreedi")


def build_stores(seed: int, count: int = 120):
    graph = weighted_cascade(erdos_renyi(60, 300, np.random.default_rng(seed)))
    samples = make_sampler(graph, "ic").sample_many(count, np.random.default_rng(seed))
    stores = [RRCollection(graph.num_nodes) for __ in range(MACHINES)]
    for idx, sample in enumerate(samples):
        stores[idx % MACHINES].add(sample)
    return graph, stores


def comm_phases(metrics):
    return [
        (p.label, p.num_bytes) for p in metrics.phases if p.category == COMMUNICATION
    ]


class TestNewGreediBytes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_bytes_both_backends(self, seed):
        graph, stores = build_stores(seed)
        ref_cluster = SimulatedCluster(MACHINES, seed=0)
        flat_cluster = SimulatedCluster(MACHINES, seed=0)
        ref = reference_newgreedi(ref_cluster, 8, list(stores))
        flat = newgreedi(flat_cluster, 8, stores=list(stores))
        assert flat.seeds == ref.seeds
        # Phase-by-phase: same labels, same payload bytes, same order.
        assert comm_phases(flat_cluster.metrics) == comm_phases(ref_cluster.metrics)
        assert flat_cluster.metrics.total_bytes == ref_cluster.metrics.total_bytes

    def test_gather_bytes_are_compressed_sparse_vectors(self):
        """Round r's gather charges the delta + varint size of each
        machine's sparse vector — strictly below the raw 8 bytes per
        distinct node it used to charge, and never zero (the length
        header always ships)."""
        __, stores = build_stores(5)
        cluster = SimulatedCluster(MACHINES, seed=0)
        result = newgreedi(cluster, 3, stores=list(stores))
        gathers = [
            p.num_bytes
            for p in cluster.metrics.phases
            if p.category == COMMUNICATION and p.label == "newgreedi/gather"
        ]
        assert len(gathers) == len(result.marginals)
        assert all(size > 0 for size in gathers)
        # Upper bound: even a dense response (every node, one tuple each)
        # in the old raw format — compression must only ever shrink.
        for size in gathers:
            assert size < 8 * stores[0].num_nodes * MACHINES
        broadcasts = [
            p.num_bytes
            for p in cluster.metrics.phases
            if p.category == COMMUNICATION and p.label == "newgreedi/seed"
        ]
        assert broadcasts == [SEED_BYTES * MACHINES] * len(result.marginals)


class TestApplicationBytes:
    """Every application's per-seed gather is priced like NEWGREEDI's: the
    compressed size of that round's replies, not 8 bytes per tuple."""

    APPLICATIONS = {
        "budgeted": lambda g, costs: budgeted_influence_maximization(
            g, costs, 6.0, MACHINES, 900, seed=3
        ),
        "profit": lambda g, costs: profit_maximization(g, 4 * costs, MACHINES, 900, seed=3),
        "seedmin": lambda g, costs: seed_minimization(g, 60.0, MACHINES, 900, seed=3),
        "targeted": lambda g, costs: targeted_influence_maximization(
            g, range(50), 5, MACHINES, 900, seed=3
        ),
        "adaptive": lambda g, costs: adaptive_influence_maximization(g, 3, MACHINES, 300, seed=3),
    }

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_gathers_equal_the_replies_compressed_size(self, small_wc_graph, monkeypatch, name):
        replies = []
        real = newgreedi_module.sparse_decrements

        def recording(store, seed, covered):
            nodes, decrements, newly = real(store, seed, covered)
            replies.append(tuple_vector_nbytes(nodes, decrements))
            return nodes, decrements, newly

        monkeypatch.setattr(newgreedi_module, "sparse_decrements", recording)
        costs = np.random.default_rng(3).uniform(0.5, 2.0, size=small_wc_graph.num_nodes)
        result = self.APPLICATIONS[name](small_wc_graph, costs)
        gathers = [
            p.num_bytes
            for p in result.metrics.phases
            if p.label.endswith("/gather") and not p.label.endswith("/init/gather")
        ]
        assert len(gathers) >= 3
        # One reply per machine per round, in machine order.
        per_round = np.asarray(replies).reshape(len(gathers), MACHINES).sum(axis=1)
        assert gathers == per_round.tolist()
        assert result.metrics.total_bytes == sum(
            p.num_bytes for p in result.metrics.phases if p.category == COMMUNICATION
        )


class TestGreediBytes:
    def test_identical_bytes_both_backends(self):
        __, stores = build_stores(9)
        # RRCollection iterates bare node arrays; rebuild samples to merge.
        merged = RRCollection(stores[0].num_nodes)
        for store in stores:
            for idx in range(store.num_sets):
                nodes = np.asarray(store.get(idx), dtype=np.int32)
                merged.add(
                    RRSample(nodes=nodes, root=int(nodes[0]), edges_examined=0)
                )
        ref_cluster = SimulatedCluster(MACHINES, seed=0)
        flat_cluster = SimulatedCluster(MACHINES, seed=0)
        ref = reference_greedi(ref_cluster, merged, 6)
        flat = greedi(flat_cluster, merged, 6)
        assert flat.seeds == ref.seeds
        assert comm_phases(flat_cluster.metrics) == comm_phases(ref_cluster.metrics)
