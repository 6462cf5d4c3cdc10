"""Updated-graph traversal == rebuilt-graph traversal, bit for bit.

The repair contract rests on one equivalence: a sampler walking an
updated VersionedGraph (its spliced CSR) must produce *exactly* the RR
set that the same coordinates produce on the graph the DirectedGraph
constructor builds from the same edges.  The row-order invariant
(updated in-rows keep surviving entries in order, inserts appended) and
keying every coin by an edge's rank in its row make this exact, not
just statistical.  ``tests/graphs/test_versioned_property.py`` checks the
same over random delta sequences.
"""

import numpy as np
import pytest

from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph
from repro.core.pool import SamplePool
from repro.ris import SubsimSampler, VectorizedICSampler, VectorizedLTSampler, make_sampler
from repro.ris.rrset import concat_batches, sample_set_range, set_keys
from repro.ris.vectorized import _row_tables, _thresholds


def rebuilt(graph):
    """``graph`` through the constructor, edges listed in in-row order."""
    targets = np.repeat(np.arange(graph.num_nodes), graph.in_degrees())
    return DirectedGraph(graph.num_nodes, graph.in_indices, targets, graph.in_probs)


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
    compacted = rebuilt(graph)
    if method == "subsim":
        # The scalar SUBSIM reference walks the updated rows too; it draws
        # from a generator, so the two streams start from equal ones.
        updated_sampler, compact_sampler = SubsimSampler(graph), SubsimSampler(compacted)
        for seed in (0, 2):
            a = updated_sampler.sample_batch(np.random.default_rng(seed), 60)
            b = compact_sampler.sample_batch(np.random.default_rng(seed), 60)
            assert batches_equal(a, b)
        return
    updated_sampler = make_sampler(graph, model=model, method=method)
    compact_sampler = make_sampler(compacted, model=model, method=method)
    for machine_id in (0, 2):
        a = sample_set_range(updated_sampler, seed=11, machine_id=machine_id, ids=range(60))
        b = sample_set_range(compact_sampler, seed=11, machine_id=machine_id, ids=range(60))
        assert batches_equal(a, b)


@pytest.mark.parametrize("model,method", [("ic", "bfs"), ("lt", "bfs")])
def test_clean_wrapper_matches_plain_graph(small_wc_graph, model, method):
    # A VersionedGraph no delta touched is transparent: same bytes as the base.
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


def updated_after(graph, rng, kind):
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


def assert_keyed_draws_agree(updated_sampler, compact_sampler, rng):
    """One blocked draw over the updated graph's row tables == one key at
    a time on the same graph == the blocked draw on the rebuilt graph."""
    for ids in id_shapes(rng, updated_sampler.block_size):
        blocked = sample_set_range(updated_sampler, seed=11, machine_id=1, ids=ids)
        one_key = concat_batches(
            [updated_sampler.sample_keys(set_keys(11, 1, [int(i)])) for i in ids]
        )
        compacted = sample_set_range(compact_sampler, seed=11, machine_id=1, ids=ids)
        assert blocked.count == len(ids)
        assert batches_equal(blocked, one_key)
        assert batches_equal(blocked, compacted)


@pytest.mark.parametrize("kind", ["insert", "delete", "reweight", "all-three"])
def test_blocked_ic_draw_on_overlay_equals_scalar_loop_and_compacted(
    small_wc_graph, rng, kind
):
    """The IC kernel on updated graphs, for every id shape (the "scalar loop"
    is one key per call)."""
    if kind == "all-three":
        graph = versioned_with_delta(small_wc_graph, rng)
        graph.apply(GraphDelta(add_edges=[(3, 4, 0.5)], remove_nodes=[10]))  # stacked
    else:
        graph = updated_after(small_wc_graph, rng, kind)
    assert graph.version > 0
    updated_sampler = make_sampler(graph, model="ic", method="bfs")
    compact_sampler = make_sampler(rebuilt(graph), model="ic", method="bfs")
    assert_keyed_draws_agree(updated_sampler, compact_sampler, rng)
    if updated_sampler._node_threshold is not None:
        # A threshold is a function of p alone: every non-empty row forced
        # onto the per-edge table — read through the all-rows-tabled path,
        # and through the per-row patch of the node thresholds' repeat —
        # flips the same coins as the per-row layout this graph gets.
        indptr = graph.in_indptr.astype(np.int64)
        table = _thresholds(_row_tables(graph)[3])
        per_edge = make_sampler(graph, model="ic", method="bfs")
        per_edge._edge_threshold, per_edge._edge_ptr = table, indptr
        per_edge._node_threshold = per_edge._tabled = None
        assert_keyed_draws_agree(per_edge, compact_sampler, rng)
        per_row = make_sampler(graph, model="ic", method="bfs")
        per_row._edge_threshold, per_row._edge_ptr = table, indptr
        per_row._tabled = np.diff(indptr) > 0
        assert_keyed_draws_agree(per_row, compact_sampler, rng)


@pytest.mark.parametrize("kind", ["delete", "downweight", "stacked"])
def test_blocked_lt_draw_on_overlay_equals_one_key_loop_and_compacted(small_wc_graph, rng, kind):
    """The LT kernel reads updated rows through its per-node tables:
    deleted rows, rows reweighted off the uniform path (running sums) and
    rows whose mass fell below one (the stop draw)."""
    if kind == "delete":
        graph = updated_after(small_wc_graph, rng, "delete")
    else:
        graph = versioned_with_delta(small_wc_graph, rng, lt_safe=True)
        if kind == "stacked":
            graph.apply(GraphDelta(remove_nodes=[10]))
    assert graph.version > 0
    updated_sampler = make_sampler(graph, model="lt", method="bfs")
    compact_sampler = make_sampler(rebuilt(graph), model="lt", method="bfs")
    if kind != "delete":
        assert updated_sampler._cumulative is not None and updated_sampler._may_stop
    assert_keyed_draws_agree(updated_sampler, compact_sampler, rng)


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_vectorized_on_overlay_is_the_bfs_kernel(small_wc_graph, rng, model):
    """``method="vectorized"`` is the same keyed kernel as ``"bfs"``, on
    updated graphs too: same class, same bytes, same as the rebuilt graph."""
    graph = versioned_with_delta(small_wc_graph, rng, lt_safe=model == "lt")
    vectorized = make_sampler(graph, model=model, method="vectorized")
    bfs = make_sampler(graph, model=model, method="bfs")
    kernel = VectorizedICSampler if model == "ic" else VectorizedLTSampler
    assert type(vectorized) is type(bfs) is kernel
    assert vectorized.block_size == bfs.block_size
    ids = [*range(40), 901, 77]
    draw = sample_set_range(vectorized, seed=3, machine_id=2, ids=ids)
    assert batches_equal(draw, sample_set_range(bfs, seed=3, machine_id=2, ids=ids))
    compacted = make_sampler(rebuilt(graph), model=model, method="vectorized")
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
            rebuilt(warm.graph), machines=3, seed=4, model=model, method="bfs"
        ) as cold:
            cold.ensure("main", [90, 60, 75])
            for a, b in zip(warm.stores("main"), cold.stores("main")):
                np.testing.assert_array_equal(a.nodes, b.nodes)
                np.testing.assert_array_equal(a.offsets, b.offsets)


#: The IC kernel's per-graph tables: what a rebase must derive exactly.
IC_TABLES = (
    "_row_starts",
    "_row_counts",
    "_indices",
    "_uniform",
    "_node_threshold",
    "_edge_threshold",
    "_edge_ptr",
    "_tabled",
)


def ic_tables(sampler):
    return {
        name: None if getattr(sampler, name) is None else getattr(sampler, name).copy()
        for name in IC_TABLES
    }


def assert_tables_equal(got, want):
    for name in IC_TABLES:
        a, b = got[name], want[name]
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def with_probabilities(graph, layout, rng):
    """``graph``'s edges under weighted-cascade ("uniform"), a few rows
    reweighted off it ("mixed"), or per-edge probabilities everywhere."""
    src, dst, probs = graph.edge_arrays()
    if layout == "mixed":
        probs = probs.copy()
        probs[rng.choice(probs.size, size=15, replace=False)] *= 0.5
    elif layout == "nonuniform":
        probs = rng.uniform(0.02, 0.7, size=probs.size)
    return VersionedGraph(DirectedGraph(graph.num_nodes, src, dst, probs))


def layout_stream(graph, rng):
    """Deltas that walk a row off the uniform path and back, empty a row,
    insert into the empty row, remove a node, and push most rows off the
    uniform path and back (across the all-rows-tabled line both ways)."""
    n = graph.num_nodes
    degrees = graph.in_degrees()
    row = int(np.flatnonzero(degrees >= 3)[0])
    sources = [int(u) for u in graph.in_neighbors(row)]
    wc = 1.0 / len(sources)
    yield GraphDelta(reweight_edges=[(sources[0], row, wc / 2)])
    yield GraphDelta(reweight_edges=[(u, row, wc) for u in sources])
    yield GraphDelta(remove_edges=[(u, row) for u in sources])
    yield GraphDelta(add_edges=[(sources[0], row, 0.3), (sources[1], row, 0.05)])
    yield GraphDelta(remove_nodes=[int(np.argmax(graph.out_degrees()))])
    src, dst, probs = graph.edge_arrays()
    picks = rng.choice(src.size, size=src.size // 2, replace=False)
    yield GraphDelta(
        reweight_edges=[(int(src[i]), int(dst[i]), float(rng.uniform(0.01, 0.3))) for i in picks]
    )
    src, dst, __ = graph.edge_arrays()
    indeg = np.bincount(dst, minlength=n)
    yield GraphDelta(
        reweight_edges=[(int(u), int(v), 1.0 / indeg[v]) for u, v in zip(src, dst)]
    )


@pytest.mark.parametrize("layout", ["uniform", "mixed", "nonuniform"])
def test_rebased_ic_kernel_equals_a_fresh_one(small_wc_graph, layout):
    """``rebased`` derives the IC kernel of the updated graph from the one
    before and the touched rows: its tables and its draws equal
    ``make_sampler`` on the same graph after every delta, and the kernel
    it started from keeps its tables (a repair still replays on it)."""
    rng = np.random.default_rng(17)
    graph = with_probabilities(small_wc_graph, layout, rng)
    kernel = make_sampler(graph, model="ic")
    keys = set_keys(7, 1, np.arange(400))
    layouts = set()
    for delta in layout_stream(graph, rng):
        before = ic_tables(kernel)
        touched = graph.apply(delta)
        rebased = kernel.rebased(graph, touched)
        assert_tables_equal(ic_tables(kernel), before)
        fresh = make_sampler(graph, model="ic")
        assert_tables_equal(ic_tables(rebased), ic_tables(fresh))
        assert batches_equal(rebased.sample_keys(keys), fresh.sample_keys(keys))
        layouts.add((fresh._node_threshold is None, fresh._tabled is None))
        kernel = rebased
    # The stream crosses the all-rows-tabled line (its last delta puts
    # every row back on weighted cascade: no row tabled).
    assert (True, True) in layouts and (False, True) in layouts
    if layout != "nonuniform":
        assert (False, False) in layouts  # some rows tabled, the rest not


def test_rebase_falls_back_where_it_cannot_derive(small_wc_graph):
    graph = VersionedGraph(DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays()))
    ic, lt = make_sampler(graph, model="ic"), make_sampler(graph, model="lt")
    touched = graph.apply(GraphDelta(add_nodes=1))
    assert touched is None and ic.rebased(graph, touched) is None
    touched = graph.apply(GraphDelta(remove_edges=[next(iter(graph.edges()))[:2]]))
    assert lt.rebased(graph, touched) is None
    # The node count moved since the IC kernel was built.
    assert ic.rebased(graph, touched) is None
