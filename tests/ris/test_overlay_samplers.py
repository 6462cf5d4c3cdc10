"""Overlay traversal == compacted-graph traversal, bit for bit.

The repair contract rests on one equivalence: a sampler walking a
VersionedGraph (base CSR + overlay rows) must produce *exactly* the RR
set that the same coordinates produce on the compacted graph.  The
compaction order invariant (effective in-rows keep per-target order)
and keying every coin by an edge's rank in its row, never its storage
offset, make this exact, not just statistical.
"""

import numpy as np
import pytest

from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph
from repro.core.pool import SamplePool
from repro.ris import SubsimSampler, VectorizedICSampler, VectorizedLTSampler, make_sampler
from repro.ris.rrset import concat_batches, sample_set_range, set_keys
from repro.ris.vectorized import _row_tables, _thresholds


def versioned_with_delta(graph, rng, lt_safe=False):
    wrapped = VersionedGraph(DirectedGraph(graph.num_nodes, *graph.edge_arrays()))
    triples = list(graph.edges())
    picks = rng.choice(len(triples), size=8, replace=False)
    # LT needs per-node in-probability sums <= 1 (weighted cascade sits at
    # exactly 1), so its delta may only remove edges or reweight downward.
    delta = GraphDelta(
        add_edges=[]
        if lt_safe
        else [
            (int(rng.integers(graph.num_nodes)), int(rng.integers(graph.num_nodes)), 0.3)
            for _ in range(4)
        ],
        remove_edges=[(u, v) for u, v, _ in (triples[int(i)] for i in picks[:4])],
        reweight_edges=[
            (u, v, p * 0.5 if lt_safe else 0.8)
            for u, v, p in (triples[int(i)] for i in picks[4:])
        ],
    )
    wrapped.apply(delta)
    return wrapped


def batches_equal(a, b):
    return (
        np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.roots, b.roots)
        and np.array_equal(a.edges_examined, b.edges_examined)
    )


@pytest.mark.parametrize(
    "model,method",
    [("ic", "bfs"), ("ic", "subsim"), ("lt", "bfs")],
)
def test_overlay_matches_compacted(small_wc_graph, rng, model, method):
    graph = versioned_with_delta(small_wc_graph, rng, lt_safe=model == "lt")
    compacted = graph.compact()
    if method == "subsim":
        # The scalar SUBSIM reference walks effective rows too; it draws
        # from a generator, so the two streams start from equal ones.
        overlay_sampler, compact_sampler = SubsimSampler(graph), SubsimSampler(compacted)
        for seed in (0, 2):
            a = overlay_sampler.sample_batch(np.random.default_rng(seed), 60)
            b = compact_sampler.sample_batch(np.random.default_rng(seed), 60)
            assert batches_equal(a, b)
        return
    overlay_sampler = make_sampler(graph, model=model, method=method)
    compact_sampler = make_sampler(compacted, model=model, method=method)
    for machine_id in (0, 2):
        a = sample_set_range(overlay_sampler, seed=11, machine_id=machine_id, ids=range(60))
        b = sample_set_range(compact_sampler, seed=11, machine_id=machine_id, ids=range(60))
        assert batches_equal(a, b)


@pytest.mark.parametrize("model,method", [("ic", "bfs"), ("lt", "bfs")])
def test_clean_wrapper_matches_plain_graph(small_wc_graph, model, method):
    # An overlay-free VersionedGraph is transparent: same bytes as the base.
    graph = VersionedGraph(
        DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
    )
    a = sample_set_range(
        make_sampler(graph, model=model, method=method), seed=5, machine_id=0, ids=range(40)
    )
    b = sample_set_range(
        make_sampler(small_wc_graph, model=model, method=method),
        seed=5,
        machine_id=0,
        ids=range(40),
    )
    assert batches_equal(a, b)


def test_removed_node_never_sampled(small_wc_graph, rng):
    graph = VersionedGraph(
        DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
    )
    victim = int(max(range(graph.num_nodes), key=graph.out_degree))
    graph.apply(GraphDelta(remove_nodes=[victim]))
    sampler = make_sampler(graph, model="ic", method="bfs")
    batch = sample_set_range(sampler, seed=1, machine_id=0, ids=range(120))
    # The victim may still be a root (node ids are kept) but can never be
    # *reached* through an edge: any appearance is as a singleton root.
    for i in range(batch.count):
        row = batch.nodes[batch.offsets[i] : batch.offsets[i + 1]]
        if victim in row:
            assert int(batch.roots[i]) == victim and row.size == 1


def overlay_after(graph, rng, kind):
    wrapped = VersionedGraph(DirectedGraph(graph.num_nodes, *graph.edge_arrays()))
    triples = list(graph.edges())
    picks = [triples[int(i)] for i in rng.choice(len(triples), size=12, replace=False)]
    n = graph.num_nodes
    if kind == "insert":
        delta = GraphDelta(
            add_edges=[(int(rng.integers(n)), int(rng.integers(n)), 0.45) for _ in range(9)]
        )
    elif kind == "delete":
        # Includes one node's whole in-row: a patched row of length zero.
        target = picks[0][1]
        whole_row = [(int(u), target) for u in graph.in_neighbors(target)]
        others = [(u, v) for u, v, _ in picks[1:6] if v != target]
        delta = GraphDelta(remove_edges=whole_row + others)
    else:  # reweight: patched rows leave the uniform-per-node fast path
        delta = GraphDelta(
            reweight_edges=[(u, v, 0.05 + 0.07 * i) for i, (u, v, _) in enumerate(picks)]
        )
    wrapped.apply(delta)
    return wrapped


def id_shapes(rng, block):
    """Every id shape a build or a repair hands the kernel."""
    scattered = np.sort(rng.choice(3000, size=41, replace=False))
    shuffled = rng.permutation(scattered)
    return ([], [5], range(30, 80), scattered, shuffled, range(7, 7 + block + 1))


def assert_keyed_draws_agree(overlay_sampler, compact_sampler, rng):
    """One blocked draw over base + overlay row tables == one key at a
    time on the same overlay == the blocked draw on the compacted graph."""
    for ids in id_shapes(rng, overlay_sampler.block_size):
        blocked = sample_set_range(overlay_sampler, seed=11, machine_id=1, ids=ids)
        one_key = concat_batches(
            [overlay_sampler.sample_keys(set_keys(11, 1, [int(i)])) for i in ids]
        )
        compacted = sample_set_range(compact_sampler, seed=11, machine_id=1, ids=ids)
        assert blocked.count == len(ids)
        assert batches_equal(blocked, one_key)
        assert batches_equal(blocked, compacted)


@pytest.mark.parametrize("kind", ["insert", "delete", "reweight", "all-three"])
def test_blocked_ic_draw_on_overlay_equals_scalar_loop_and_compacted(
    small_wc_graph, rng, kind
):
    """The IC kernel on overlays, for every id shape (the "scalar loop"
    is one key per call)."""
    if kind == "all-three":
        graph = versioned_with_delta(small_wc_graph, rng)
        graph.apply(GraphDelta(add_edges=[(3, 4, 0.5)], remove_nodes=[10]))  # stacked
    else:
        graph = overlay_after(small_wc_graph, rng, kind)
    assert graph.in_overlay is not None
    overlay_sampler = make_sampler(graph, model="ic", method="bfs")
    compact_sampler = make_sampler(graph.compact(), model="ic", method="bfs")
    assert_keyed_draws_agree(overlay_sampler, compact_sampler, rng)
    if overlay_sampler._node_threshold is not None:
        # A threshold is a function of p alone: the per-edge path, forced
        # onto a graph the per-node path serves, flips the same coins.
        per_edge = make_sampler(graph, model="ic", method="bfs")
        per_edge._edge_threshold = _thresholds(_row_tables(graph)[3])
        per_edge._node_threshold = None
        assert_keyed_draws_agree(per_edge, compact_sampler, rng)


@pytest.mark.parametrize("kind", ["delete", "downweight", "stacked"])
def test_blocked_lt_draw_on_overlay_equals_one_key_loop_and_compacted(small_wc_graph, rng, kind):
    """The LT kernel reads overlay rows through its per-node tables:
    deleted rows, rows reweighted off the uniform path (running sums) and
    rows whose mass fell below one (the stop draw)."""
    if kind == "delete":
        graph = overlay_after(small_wc_graph, rng, "delete")
    else:
        graph = versioned_with_delta(small_wc_graph, rng, lt_safe=True)
        if kind == "stacked":
            graph.apply(GraphDelta(remove_nodes=[10]))
    assert graph.in_overlay is not None
    overlay_sampler = make_sampler(graph, model="lt", method="bfs")
    compact_sampler = make_sampler(graph.compact(), model="lt", method="bfs")
    if kind != "delete":
        assert overlay_sampler._cumulative is not None and overlay_sampler._may_stop
    assert_keyed_draws_agree(overlay_sampler, compact_sampler, rng)


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_vectorized_on_overlay_is_the_bfs_kernel(small_wc_graph, rng, model):
    """``method="vectorized"`` is the same keyed kernel as ``"bfs"``, on
    overlays too: same class, same bytes, same as the compacted graph."""
    graph = versioned_with_delta(small_wc_graph, rng, lt_safe=model == "lt")
    vectorized = make_sampler(graph, model=model, method="vectorized")
    bfs = make_sampler(graph, model=model, method="bfs")
    kernel = VectorizedICSampler if model == "ic" else VectorizedLTSampler
    assert type(vectorized) is type(bfs) is kernel
    assert vectorized.block_size == bfs.block_size
    ids = [*range(40), 901, 77]
    draw = sample_set_range(vectorized, seed=3, machine_id=2, ids=ids)
    assert batches_equal(draw, sample_set_range(bfs, seed=3, machine_id=2, ids=ids))
    compacted = make_sampler(graph.compact(), model=model, method="vectorized")
    assert batches_equal(draw, sample_set_range(compacted, seed=3, machine_id=2, ids=ids))


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_vectorized_pool_warm_equals_cold(small_wc_graph, model):
    """Pools accept ``method="vectorized"``: a prefix-then-top-up pool,
    repaired after an update, holds the bytes of a pool built cold on the
    updated graph with ``method="bfs"``."""
    graph = VersionedGraph(
        DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
    )
    with SamplePool(graph, machines=3, seed=4, model=model, method="vectorized") as warm:
        warm.ensure("main", [20, 35, 10])
        warm.ensure("main", [90, 60, 75])
        edges = list(small_wc_graph.edges())
        repaired = warm.apply_update(
            GraphDelta(
                remove_edges=[(u, v) for u, v, _ in edges[:6]],
                reweight_edges=[(u, v, p * 0.5) for u, v, p in edges[40:44]],
            )
        )
        assert sum(repaired.values()) > 0
        with SamplePool(
            warm.graph.compact(), machines=3, seed=4, model=model, method="bfs"
        ) as cold:
            cold.ensure("main", [90, 60, 75])
            for a, b in zip(warm.stores("main"), cold.stores("main")):
                np.testing.assert_array_equal(a.nodes, b.nodes)
                np.testing.assert_array_equal(a.offsets, b.offsets)
