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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ris.flat as flat_module
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executor import make_executor
from repro.core.pool import SamplePool
from repro.coverage import CoverageState
from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph
from repro.ris import VectorizedICSampler

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
    ``(seed, key, machine)`` stream jumped to its index, again when
    the IC/LT coins became hashes of those coordinates, and the
    post-update digest once more when updated in-rows became rank-stable
    (the two pre-update digests did not move)."""

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
        assert digest(pool) == "f0723691243b32a8"


# ----------------------------------------------------------------------
# Replay, then redraw: a repair keeps the sets whose world did not change
# ----------------------------------------------------------------------
def per_set_edges(store) -> np.ndarray:
    return np.diff([store.edges_examined_upto(i) for i in range(store.num_sets + 1)])


def fresh_coverage(pool, stores) -> CoverageState:
    state = CoverageState(pool.num_nodes, MACHINES)
    cluster = SimulatedCluster(MACHINES, seed=SEED)
    state.ingest(make_executor("simulated", cluster, graph=pool.graph), stores)
    return state


@st.composite
def repair_deltas(draw, graph):
    """One delta mixing the shapes a replay must get right: a parallel
    copy, the removal of a row's last entry, a removal plus an insert in
    one row, reweights up and down, and a node removal."""
    src, dst, probs = graph.edge_arrays()
    n = graph.num_nodes
    add, remove, reweight, nodes = [], [], [], []
    for kind in draw(
        st.lists(
            st.sampled_from(["parallel", "last", "swap", "up", "down", "node"]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    ):
        i = draw(st.integers(0, src.size - 1))
        u, v, p = int(src[i]), int(dst[i]), float(probs[i])
        if kind == "parallel":
            add.append((u, v, p * 0.5))
        elif kind == "last":
            remove.append((int(graph.in_neighbors(v)[-1]), v))
        elif kind == "swap":
            remove.append((u, v))
            add.append((draw(st.integers(0, n - 1)), v, p * 0.5))
        elif kind == "node":
            nodes.append(draw(st.integers(0, n - 1)))
        else:
            reweight.append((u, v, min(1.0, p * 2.0) if kind == "up" else p * 0.5))
    return GraphDelta(
        add_edges=add, remove_edges=list(set(remove)), reweight_edges=reweight, remove_nodes=nodes
    )


@pytest.mark.parametrize("model", ["ic", "lt"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replayed_repair_equals_cold_pool(small_wc_graph, model, data):
    """After every delta: stores, per-set ``edges_examined`` and the
    donated coverage snapshot equal a cold pool's on the final graph."""
    warm = pool_on(fresh_versioned(small_wc_graph), model=model)
    cold_graph = fresh_versioned(small_wc_graph)
    try:
        warm.ensure("main", [60] * MACHINES)
        warm.donate_coverage("main", fresh_coverage(warm, warm.stores("main")))
        for step in range(data.draw(st.integers(1, 3), label="steps")):
            delta = data.draw(repair_deltas(warm.graph), label=f"delta {step}")
            try:
                warm.apply_update(delta)
            except ValueError:
                continue  # refused (LT mass above one, or a reweight of a removed edge)
            cold_graph.apply(delta)
            with pool_on(cold_graph, model=model) as cold:
                cold.ensure("main", [60] * MACHINES)
                assert_stores_equal(warm, cold)
                for ws, cs in zip(warm.stores("main"), cold.stores("main")):
                    np.testing.assert_array_equal(per_set_edges(ws), per_set_edges(cs))
                forked = warm.fork_coverage("main", [60] * MACHINES)
                np.testing.assert_array_equal(
                    forked.counts, fresh_coverage(cold, cold.stores("main")).counts
                )
    finally:
        warm.close()


def test_repair_redraws_only_changed_worlds(small_wc_graph):
    """A seeded IC stream (one removal plus an insert in the same row, one
    halving per delta): every delta re-examines fewer sets than the pool
    holds, at most a fifth of the re-examined sets are redrawn, and the
    returned counts are the re-examined ones."""
    rng = np.random.default_rng(3)
    examined = redrawn = 0
    with pool_on(fresh_versioned(small_wc_graph)) as pool:
        pool.ensure("main", [300] * MACHINES)
        for _ in range(20):
            src, dst, probs = pool.graph.edge_arrays()
            i, j = rng.choice(src.size, 2, replace=False)
            before = pool.lifetime_metrics.sets_redrawn
            repaired = pool.apply_update(
                GraphDelta(
                    remove_edges=[(int(src[i]), int(dst[i]))],
                    add_edges=[(int(rng.integers(pool.num_nodes)), int(dst[i]), probs[i] * 0.5)],
                    reweight_edges=[(int(src[j]), int(dst[j]), probs[j] * 0.5)],
                )
            )
            assert repaired["main"] < 300 * MACHINES
            examined += repaired["main"]
            redrawn += pool.lifetime_metrics.sets_redrawn - before
    assert 0 < redrawn <= examined / 5


@pytest.mark.parametrize("executor", ["simulated", "multiprocessing"])
def test_targeted_repair_redraws_only_changed_worlds(small_wc_graph, executor):
    """A dynamic targeted pool replays rows like any other pool: over a
    seeded stream of single-edge removals it redraws fewer sets than it
    re-examines, and after a node addition's rebuild it still equals a
    targeted pool built cold on the updated graph."""
    roots = range(0, 200, 3)
    rng = np.random.default_rng(3)
    deltas = []
    examined = 0
    with pool_on(fresh_versioned(small_wc_graph), executor, roots=roots) as warm:
        warm.ensure("main", [300] * MACHINES)
        for _ in range(20):
            src, dst, _ = warm.graph.edge_arrays()
            i = int(rng.integers(src.size))
            deltas.append(GraphDelta(remove_edges=[(int(src[i]), int(dst[i]))]))
            examined += warm.apply_update(deltas[-1])["main"]
        redrawn = warm.lifetime_metrics.sets_redrawn
        assert 0 < redrawn < examined / 2  # a full redraw would be all of them
        warm.ensure("main", [350] * MACHINES)
        cold_graph = fresh_versioned(small_wc_graph)
        for delta in deltas:
            cold_graph.apply(delta)
        with pool_on(cold_graph, executor, roots=roots) as cold:
            cold.ensure("main", [350] * MACHINES)
            assert_stores_equal(warm, cold)
            deltas.append(GraphDelta(add_nodes=1))
            for pool in (warm, cold):
                pool.apply_update(deltas[-1])
            assert_stores_equal(warm, cold)


def test_warm_update_patches_the_indexes(small_wc_graph, monkeypatch):
    """A count, not a timing gate: a warm pool whose stores are indexed
    lands a stream of updates without re-sorting any store's inverted
    index — it is patched for the redrawn ids — and still ends
    bit-identical to a cold pool on the final graph, indexes included."""
    real_build = flat_module.build_inverted_index
    calls = []

    def counting_build(*args):
        calls.append(args)
        return real_build(*args)

    monkeypatch.setattr(flat_module, "build_inverted_index", counting_build)
    deltas = update_stream(small_wc_graph, 8)  # the seventh removes a node
    with pool_on(fresh_versioned(small_wc_graph)) as warm:
        warm.ensure("main", [120] * MACHINES)
        for store in warm.stores("main"):
            store.inv_sets  # what a warm query's selection builds
        calls.clear()
        for delta in deltas:
            warm.apply_update(delta)
        assert warm.lifetime_metrics.sets_redrawn > 0
        assert calls == []
        cold_graph = fresh_versioned(small_wc_graph)
        for delta in deltas:
            cold_graph.apply(delta)
        with pool_on(cold_graph) as cold:
            cold.ensure("main", [120] * MACHINES)
            assert_stores_equal(warm, cold)
            for sw, sc in zip(warm.stores("main"), cold.stores("main")):
                assert np.array_equal(sw.inv_sets, sc.inv_sets)
                assert np.array_equal(sw.inv_offsets, sc.inv_offsets)
