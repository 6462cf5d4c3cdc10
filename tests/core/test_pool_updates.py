"""Warm-pool repair differential: repaired pools == cold pools on the
updated graph, bit for bit.

The tentpole correctness anchor.  A warm :class:`SamplePool` mid
query-stream (sets already generated, more to come) takes a
:class:`GraphDelta`, repairs only the RR sets whose traversal consulted
a changed in-row, keeps topping up — and every byte of every collection
must equal a pool built cold on the already-updated graph with the same
seed and schedule.  Exercised across batch shapes (insert-only,
delete-only, mixed) and both executors.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executor import make_executor
from repro.core.pool import SamplePool
from repro.coverage import CoverageState
from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph
from repro.ris import VectorizedICSampler, make_sampler

SEED = 41
MACHINES = 2


def fresh_versioned(graph) -> VersionedGraph:
    return VersionedGraph(DirectedGraph(graph.num_nodes, *graph.edge_arrays()))


def make_delta(graph, shape: str) -> GraphDelta:
    edges = [(u, v) for u, v, _ in graph.edges()]
    if shape == "insert":
        return GraphDelta(
            add_edges=[(0, 5, 0.4), (17, 3, 0.2), (90, 120, 0.6), (44, 45, 0.3)]
        )
    if shape == "delete":
        return GraphDelta(remove_edges=edges[::150][:6])
    if shape == "mixed":
        return GraphDelta(
            add_edges=[(2, 8, 0.35), (61, 62, 0.5)],
            remove_edges=edges[5:10],
            reweight_edges=[(*edges[20], 0.9), (*edges[21], 0.1)],
        )
    raise ValueError(shape)


def pool_on(graph, executor="simulated", **kwargs):
    return SamplePool(
        graph,
        machines=MACHINES,
        seed=SEED,
        executor=f"multiprocessing:{MACHINES}" if executor == "multiprocessing" else executor,
        **kwargs,
    )


def assert_stores_equal(a: SamplePool, b: SamplePool, key: str = "main") -> None:
    for sa, sb in zip(a.stores(key), b.stores(key)):
        assert np.array_equal(sa.nodes, sb.nodes)
        assert np.array_equal(sa.offsets, sb.offsets)
        assert sa.total_edges_examined == sb.total_edges_examined


@pytest.mark.parametrize("shape", ["insert", "delete", "mixed"])
@pytest.mark.parametrize("executor", ["simulated", "multiprocessing"])
def test_repaired_pool_equals_cold_pool(small_wc_graph, shape, executor):
    delta = make_delta(small_wc_graph, shape)
    warm = pool_on(fresh_versioned(small_wc_graph), executor)
    try:
        # Mid-stream: generate, update, keep generating.
        warm.ensure("main", [30] * MACHINES)
        repaired = warm.apply_update(delta)
        warm.ensure("main", [55] * MACHINES)
        # Incrementality: some but not all resident sets were redrawn.
        assert 0 < repaired["main"] <= 30 * MACHINES

        cold_graph = fresh_versioned(small_wc_graph)
        cold_graph.apply(delta)
        cold = pool_on(cold_graph, executor)
        try:
            cold.ensure("main", [55] * MACHINES)
            assert_stores_equal(warm, cold)
        finally:
            cold.close()
    finally:
        warm.close()


def test_update_between_two_keys_repairs_both(small_wc_graph):
    warm = pool_on(fresh_versioned(small_wc_graph))
    try:
        warm.ensure("main", [20] * MACHINES)
        warm.ensure("targeted", [10] * MACHINES)
        repaired = warm.apply_update(make_delta(small_wc_graph, "mixed"))
        assert set(repaired) == {"main", "targeted"}
        assert any(repaired.values())
    finally:
        warm.close()


def test_full_invalidation_on_node_addition(small_wc_graph):
    n = small_wc_graph.num_nodes
    delta = GraphDelta(add_nodes=2, add_edges=[(n, 0, 0.5), (n + 1, n, 0.5)])
    warm = pool_on(fresh_versioned(small_wc_graph))
    try:
        warm.ensure("main", [25] * MACHINES)
        repaired = warm.apply_update(delta)
        # Node additions change the root-draw range: everything redraws.
        assert repaired["main"] == 25 * MACHINES
        warm.ensure("main", [40] * MACHINES)

        cold_graph = fresh_versioned(small_wc_graph)
        cold_graph.apply(delta)
        cold = pool_on(cold_graph)
        try:
            cold.ensure("main", [40] * MACHINES)
            assert_stores_equal(warm, cold)
            assert warm.stores("main")[0].num_nodes == n + 2
        finally:
            cold.close()
    finally:
        warm.close()


def test_sequential_updates_compose(small_wc_graph):
    warm = pool_on(fresh_versioned(small_wc_graph))
    try:
        warm.ensure("main", [15] * MACHINES)
        warm.apply_update(make_delta(small_wc_graph, "insert"))
        warm.ensure("main", [30] * MACHINES)
        warm.apply_update(make_delta(small_wc_graph, "delete"))
        warm.ensure("main", [45] * MACHINES)

        cold_graph = fresh_versioned(small_wc_graph)
        cold_graph.apply(make_delta(small_wc_graph, "insert"))
        cold_graph.apply(make_delta(small_wc_graph, "delete"))
        cold = pool_on(cold_graph)
        try:
            cold.ensure("main", [45] * MACHINES)
            assert_stores_equal(warm, cold)
        finally:
            cold.close()
    finally:
        warm.close()


def test_coverage_snapshot_repaired_not_dropped(small_wc_graph):
    warm = pool_on(fresh_versioned(small_wc_graph))
    try:
        warm.ensure("main", [30] * MACHINES)
        stores = warm.stores("main")
        cluster = SimulatedCluster(MACHINES, seed=SEED)
        state = CoverageState(warm.num_nodes, MACHINES)
        state.ingest(make_executor("simulated", cluster, graph=warm.graph), stores)
        warm.donate_coverage("main", state)

        warm.apply_update(make_delta(small_wc_graph, "mixed"))
        forked = warm.fork_coverage("main", [30] * MACHINES)
        assert forked is not None
        # The repaired snapshot still equals a from-scratch aggregation
        # over the repaired stores.
        np.testing.assert_array_equal(forked.counts, forked.rebuild_from(stores))
    finally:
        warm.close()


def test_full_invalidation_drops_coverage_cache(small_wc_graph):
    warm = pool_on(fresh_versioned(small_wc_graph))
    try:
        warm.ensure("main", [20] * MACHINES)
        state = CoverageState(warm.num_nodes, MACHINES)
        cluster = SimulatedCluster(MACHINES, seed=SEED)
        state.ingest(
            make_executor("simulated", cluster, graph=warm.graph),
            warm.stores("main"),
        )
        warm.donate_coverage("main", state)
        warm.apply_update(GraphDelta(add_nodes=1))
        assert warm.fork_coverage("main", [20] * MACHINES) is None
    finally:
        warm.close()


class TestSignatureEpoch:
    def test_real_update_bumps_epoch(self, small_wc_graph):
        warm = pool_on(fresh_versioned(small_wc_graph))
        try:
            warm.ensure("main", [20] * MACHINES)
            before = warm.signature()
            warm.apply_update(make_delta(small_wc_graph, "mixed"))
            after = warm.signature()
            assert after[0] == before[0] + 1
            assert after[1] == before[1]  # sizes unchanged: in-place repair
        finally:
            warm.close()

    def test_noop_repair_keeps_epoch(self, small_wc_graph):
        warm = pool_on(fresh_versioned(small_wc_graph))
        try:
            warm.ensure("main", [20] * MACHINES)
            before = warm.signature()
            # No RR set contains a touched row -> nothing rewritten ->
            # cached results stay valid and the epoch must not move.
            repaired = warm.repair(np.zeros(0, dtype=np.int64))
            assert repaired == {"main": 0}
            assert warm.signature() == before
        finally:
            warm.close()


class TestRefusals:
    def test_plain_graph_refuses_apply_update(self, small_wc_graph):
        pool = SamplePool(
            small_wc_graph, machines=2, seed=SEED
        )
        try:
            with pytest.raises(TypeError, match="VersionedGraph"):
                pool.apply_update(GraphDelta(add_edges=[(0, 1, 0.5)]))
        finally:
            pool.close()

    def test_fixed_sampler_refuses_repair_factory_works(self, small_wc_graph):
        graph = fresh_versioned(small_wc_graph)
        fixed = SamplePool(
            graph,
            machines=1,
            seed=SEED,
            sampler=make_sampler(graph, model="ic", method="bfs"),
        )
        try:
            fixed.ensure("main", [10])
            with pytest.raises(ValueError, match="sampler_factory"):
                fixed.apply_update(make_delta(small_wc_graph, "insert"))
        finally:
            fixed.close()

        warm = SamplePool(
            fresh_versioned(small_wc_graph),
            machines=1,
            seed=SEED,
            sampler_factory=lambda g: make_sampler(g, model="ic", method="bfs"),
        )
        try:
            warm.ensure("main", [10])
            warm.apply_update(make_delta(small_wc_graph, "insert"))
            warm.ensure("main", [20])
            cold_graph = fresh_versioned(small_wc_graph)
            cold_graph.apply(make_delta(small_wc_graph, "insert"))
            cold = SamplePool(
                cold_graph,
                machines=1,
                seed=SEED,
                sampler_factory=lambda g: make_sampler(g, model="ic", method="bfs"),
            )
            try:
                cold.ensure("main", [20])
                assert_stores_equal(warm, cold)
            finally:
                cold.close()
        finally:
            warm.close()


class TestBlockedDrawCount:
    """A count, not a timing gate: per-set generation reaches the keyed
    kernel in as few draws as the id sets allow, never a generator loop."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"sample_keys": 0, "blocks": 0, "sample_batch": 0}

        def counting(cls, attr, key):
            real = getattr(cls, attr)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, attr, wrapper)

        counting(VectorizedICSampler, "sample_keys", "sample_keys")
        counting(VectorizedICSampler, "sample_batch", "sample_batch")
        counting(VectorizedICSampler, "_run_block", "blocks")
        return calls

    def test_update_is_one_blocked_draw_per_machine(self, small_wc_graph, calls):
        machines = 4
        with SamplePool(
            fresh_versioned(small_wc_graph), machines=machines, seed=SEED
        ) as pool:
            pool.ensure("main", [40] * machines)
            calls.update(sample_keys=0, blocks=0)
            repaired = pool.apply_update(make_delta(small_wc_graph, "mixed"))
            assert repaired["main"] > machines  # scattered ids, several per machine
            assert 1 <= calls["sample_keys"] <= machines
            assert calls["blocks"] == calls["sample_keys"]
            assert calls["sample_batch"] == 0

    def test_build_and_rebuild_fill_whole_blocks(self, small_wc_graph, calls):
        machines, per_machine = 4, 300
        with SamplePool(
            fresh_versioned(small_wc_graph), machines=machines, seed=SEED
        ) as pool:
            pool.ensure("main", [per_machine] * machines)
            block = pool.executor.sampler("ic").block_size
            budget = machines * math.ceil(per_machine / block)
            assert machines <= calls["blocks"] <= budget
            calls.update(blocks=0)
            pool.apply_update(GraphDelta(add_nodes=1))  # full invalidation
            assert machines <= calls["blocks"] <= budget
            assert calls["sample_batch"] == 0


def update_stream(graph, rounds: int):
    """Ten seeded mixed batches, each valid on the graph the previous
    ones left (built against a shadow copy)."""
    shadow = fresh_versioned(graph)
    rng = np.random.default_rng(5)
    n = graph.num_nodes
    deltas = []
    for step in range(rounds):
        edges = [(u, v) for u, v, _ in shadow.edges()]
        picks = rng.choice(len(edges), size=4, replace=False)
        delta = GraphDelta(
            add_edges=[
                (int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.1, 0.9)))
                for _ in range(2)
            ],
            remove_edges=[edges[int(i)] for i in picks[:2]],
            reweight_edges=[
                (*edges[int(i)], float(rng.uniform(0.05, 0.95))) for i in picks[2:]
            ],
            remove_nodes=[int(rng.integers(n))] if step == 6 else [],
        )
        shadow.apply(delta)
        deltas.append(delta)
    return deltas


@pytest.mark.parametrize("executor", ["simulated", "multiprocessing:2", "socket:2"])
def test_per_set_pool_bytes_are_the_recorded_ones(small_wc_graph, executor):
    """Build, top-up and ten repairs leave the same recorded bytes on
    every executor.  Re-pinned when a set's generator became the
    ``(seed, key, machine)`` stream jumped to its index, and again when
    the IC/LT coins became hashes of those coordinates."""

    def digest(pool) -> str:
        sha = hashlib.sha256()
        for store in pool.stores("main"):
            sha.update(np.ascontiguousarray(store.nodes).tobytes())
            sha.update(np.ascontiguousarray(store.offsets[: store.num_sets + 1]).tobytes())
        return sha.hexdigest()[:16]

    with SamplePool(
        fresh_versioned(small_wc_graph),
        machines=MACHINES,
        seed=SEED,
        executor=executor,
    ) as pool:
        pool.ensure("main", [60, 60])
        assert digest(pool) == "426056364b3f8838"
        pool.ensure("main", [90, 75])
        assert digest(pool) == "608c10618392d106"
        for delta in update_stream(small_wc_graph, 10):
            pool.apply_update(delta)
        assert digest(pool) == "79646c6f51ce18b6"
