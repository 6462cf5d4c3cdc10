"""Property test (hypothesis): a VersionedGraph after any delta sequence is
the DirectedGraph built from the same edges.

The reference keeps every in-row as a Python list under the rank-stable
rule — a removed entry's slot takes the row's next insert, or else its
last survivor, and leftover inserts are appended — and rebuilds a graph
through the constructor after every delta.  The spliced CSR must match
it: in-rows exactly and in order, out-rows as multisets, one edge count,
the same in-probability sums, and byte-equal keyed IC/LT draws.  A second
property reads the invariant off the spliced graph alone: every surviving
in-edge keeps its rank unless the row shrank past it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph
from repro.ris import make_sampler
from repro.ris.rrset import sample_set_range


def reference_apply(rows, n, delta_kwargs):
    """The delta on ``rows`` (in-row lists of ``(u, p)``), one edge at a time."""
    n += delta_kwargs["add_nodes"]
    rows = rows + [[] for _ in range(delta_kwargs["add_nodes"])]
    gone = set(delta_kwargs["remove_nodes"])
    dropped = {(u, v) for u, v in delta_kwargs["remove_edges"]}
    reweights = {(u, v): p for u, v, p in delta_kwargs["reweight_edges"]}
    inserts = [[] for _ in rows]
    for u, v, p in delta_kwargs["add_edges"]:
        if u not in gone and v not in gone:
            inserts[v].append((u, p))
    out = []
    for v, row in enumerate(rows):
        slots = [
            None if u in gone or v in gone or (u, v) in dropped else (u, reweights.get((u, v), p))
            for u, p in row
        ]
        pending = list(inserts[v])
        for hole in [r for r, entry in enumerate(slots) if entry is None]:
            if pending:
                slots[hole] = pending.pop(0)
                continue
            while slots and slots[-1] is None:
                slots.pop()
            if len(slots) > hole:
                slots[hole] = slots.pop()
        while slots and slots[-1] is None:
            slots.pop()
        out.append(slots + pending)
    return out, n
def reference_graph(rows, n):
    sources = [u for row in rows for u, _ in row]
    targets = [v for v, row in enumerate(rows) for _ in row]
    probs = [p for row in rows for _, p in row]
    return DirectedGraph(n, sources, targets, probs)


@st.composite
def deltas(draw, rows, n):
    """One delta over the reference state: removals and reweights name
    existing edges, adds may touch fresh or removed nodes."""
    edges = sorted({(u, v) for v, row in enumerate(rows) for u, _ in row})
    add_nodes = draw(st.sampled_from([0, 0, 0, 1, 2]))
    total = n + add_nodes
    remove_nodes = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    remove_edges = draw(st.lists(st.sampled_from(edges), max_size=3, unique=True)) if edges else []
    survivors = [
        e
        for e in edges
        if e not in remove_edges and e[0] not in remove_nodes and e[1] not in remove_nodes
    ]
    reweight_edges = (
        [
            (u, v, draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])))
            for u, v in draw(st.lists(st.sampled_from(survivors), max_size=3, unique=True))
        ]
        if survivors
        else []
    )
    add_edges = [
        (draw(st.integers(0, total - 1)), draw(st.integers(0, total - 1)), p)
        for p in draw(st.lists(st.sampled_from([0.05, 0.1, 0.25]), max_size=4))
    ]
    return dict(
        add_edges=add_edges,
        remove_edges=remove_edges,
        reweight_edges=reweight_edges,
        remove_nodes=remove_nodes,
        add_nodes=add_nodes,
    )


def keyed_draws(graph, model):
    try:
        sampler = make_sampler(graph, model=model)
    except ValueError:
        return None  # LT refuses incoming mass above one; both must refuse
    batch = sample_set_range(sampler, seed=5, machine_id=1, ids=range(40))
    return batch.nodes.tobytes(), batch.offsets.tobytes(), batch.roots.tobytes()


def base_graph(data):
    n = data.draw(st.integers(2, 12), label="n")
    m = data.draw(st.integers(0, 30), label="m")
    edges = [
        (
            data.draw(st.integers(0, n - 1)),
            data.draw(st.integers(0, n - 1)),
            data.draw(st.sampled_from([0.05, 0.1, 0.2])),
        )
        for _ in range(m)
    ]
    base = DirectedGraph(n, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges])
    rows = [[] for _ in range(n)]
    for u, v, p in edges:
        rows[v].append((u, p))
    return VersionedGraph(base), rows, n


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_delta_sequences_equal_a_directly_built_graph(data):
    graph, rows, n = base_graph(data)
    for step in range(data.draw(st.integers(1, 4), label="steps")):
        kwargs = data.draw(deltas(rows, n), label=f"delta {step}")
        graph.apply(GraphDelta(**kwargs))
        rows, n = reference_apply(rows, n, kwargs)
        direct = reference_graph(rows, n)

        assert graph.num_nodes == direct.num_nodes
        assert graph.num_edges == direct.num_edges
        assert graph.in_degrees().sum() == graph.out_degrees().sum() == graph.num_edges
        assert np.array_equal(graph.in_indptr, direct.in_indptr)
        assert np.array_equal(graph.in_indices, direct.in_indices)
        assert np.array_equal(graph.in_probs, direct.in_probs)
        for u in range(n):
            assert sorted(zip(graph.out_neighbors(u).tolist(), graph.out_probabilities(u))) == (
                sorted(zip(direct.out_neighbors(u).tolist(), direct.out_probabilities(u)))
            )
        assert np.array_equal(graph.in_probability_sums(), direct.in_probability_sums())
        for model in ("ic", "lt"):
            assert keyed_draws(graph, model) == keyed_draws(direct, model)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_surviving_in_edges_keep_their_rank(data):
    """Read off the spliced graph: a surviving in-edge keeps its rank
    unless its row shrank past it, and then it fills a removed slot.  So
    a removal moves at most one survivor, and a row with no removal
    (reweights and inserts only) moves none."""
    graph, rows, n = base_graph(data)
    for step in range(data.draw(st.integers(1, 4), label="steps")):
        kwargs = data.draw(deltas(rows, n), label=f"delta {step}")
        before = [graph.in_neighbors(v).tolist() for v in range(graph.num_nodes)]
        graph.apply(GraphDelta(**kwargs))
        rows, n = reference_apply(rows, n, kwargs)
        gone = set(kwargs["remove_nodes"])
        dropped = {tuple(e) for e in kwargs["remove_edges"]}
        for v, old in enumerate(before):
            new = graph.in_neighbors(v).tolist()
            survives = [u not in gone and v not in gone and (u, v) not in dropped for u in old]
            removed = [r for r, alive in enumerate(survives) if not alive]
            moved = [r for r, alive in enumerate(survives) if alive and r >= len(new)]
            assert len(moved) <= len(removed)
            for r, alive in enumerate(survives):
                if alive and r < len(new):
                    assert new[r] == old[r], (v, old, new)
            # A moved survivor fills a removed slot.
            for r in moved:
                assert any(new[h] == old[r] for h in removed if h < len(new)), (v, old, new)
