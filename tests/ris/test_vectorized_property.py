"""Property tests for the vectorized kernels: exact enumeration + edge cases.

On graphs small enough to enumerate every live-edge outcome, the exact
per-node RR-inclusion probability ``P(u in RR(root))`` is computable in
closed form:

* **IC** — sum over all ``2^m`` live-edge subgraphs (each edge live
  independently) of the subgraph's probability times the indicator that
  ``u`` reaches the root;
* **LT** — each node independently picks one in-edge (with
  its probability) or none (the residual mass); sum over the product
  space of choices.

The empirical pinned-root frequencies from the vectorized kernels must
match these exact values within union-bounded Hoeffding deviations —
a distribution-free certificate that the blocked frontier advancement
computes the right process, complementing the KS/chi-square agreement
checks in ``test_vectorized_equivalence.py``.

The hypothesis block mirrors ``test_property.py``'s structural
invariants for the blocked samplers on random small graphs; the
enumerations run on fixed seeded graphs (see ``tests/ris/equivalence.py``
for the suite's false-positive budget).
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import GraphBuilder, weighted_cascade
from repro.ris import VectorizedICSampler, VectorizedLTSampler

from .equivalence import DEFAULT_ALPHA, hoeffding_epsilon

SAMPLES = 6000


# ----------------------------------------------------------------------
# Exact enumeration
# ----------------------------------------------------------------------
def edge_list(graph):
    edges = []
    for u in range(graph.num_nodes):
        for idx in range(int(graph.out_indptr[u]), int(graph.out_indptr[u + 1])):
            edges.append((u, int(graph.out_indices[idx]), float(graph.out_probs[idx])))
    return edges


def reverse_reachable(num_nodes, live_edges, root):
    """Nodes that reach ``root`` through the live edges (the RR set)."""
    preds: dict[int, list[int]] = {}
    for s, t in live_edges:
        preds.setdefault(t, []).append(s)
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for s in preds.get(node, ()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def exact_ic_inclusion(graph, root):
    """``P(u in RR(root))`` under IC, by summing all live-edge subgraphs."""
    edges = edge_list(graph)
    m = len(edges)
    assert m <= 12, "IC enumeration needs 2^m subgraphs; keep the graph tiny"
    inclusion = np.zeros(graph.num_nodes)
    for mask in range(1 << m):
        weight = 1.0
        live = []
        for i, (s, t, p) in enumerate(edges):
            if mask >> i & 1:
                weight *= p
                live.append((s, t))
            else:
                weight *= 1.0 - p
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        for u in reverse_reachable(graph.num_nodes, live, root):
            inclusion[u] += weight
    return inclusion


def exact_lt_inclusion(graph, root):
    """``P(u in RR(root))`` under LT, by enumerating per-node in-choices."""
    edges = edge_list(graph)
    options = []
    total_combos = 1
    for v in range(graph.num_nodes):
        ins = [(s, p) for (s, t, p) in edges if t == v]
        opts = [((s, v), p) for (s, p) in ins]
        opts.append((None, 1.0 - sum(p for _, p in ins)))
        options.append(opts)
        total_combos *= len(opts)
    assert total_combos <= 20000, "LT enumeration product space too large"
    inclusion = np.zeros(graph.num_nodes)
    for combo in product(*options):
        weight = 1.0
        for _, p in combo:
            weight *= p
        if weight == 0.0:
            continue
        live = [edge for edge, _ in combo if edge is not None]
        for u in reverse_reachable(graph.num_nodes, live, root):
            inclusion[u] += weight
    return inclusion


def empirical_inclusion(sampler, root, num_nodes, seed):
    rng = np.random.default_rng(seed)
    batch = sampler.sample_batch_rooted(rng, np.full(SAMPLES, root, dtype=np.int64))
    # Sets are unique per set, so one bincount counts memberships.
    return np.bincount(batch.nodes, minlength=num_nodes) / SAMPLES


def assert_matches_exact(empirical, exact, label):
    # Union bound over the graph's nodes: each per-node frequency is a
    # mean of SAMPLES indicators.
    epsilon = hoeffding_epsilon(SAMPLES, DEFAULT_ALPHA / exact.size)
    deviation = np.abs(empirical - exact)
    worst = int(deviation.argmax())
    assert deviation.max() <= epsilon, (
        f"{label}: node {worst} empirical {empirical[worst]:.4f} vs exact "
        f"{exact[worst]:.4f} exceeds Hoeffding epsilon {epsilon:.4f}"
    )


def random_tiny_graph(seed, max_edges=9, lt_safe=False):
    """A random graph small enough for exact enumeration.

    ``lt_safe`` rescales probabilities so each node's incoming mass stays
    <= 1 (the LT feasibility constraint).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    builder = GraphBuilder(num_nodes=n)
    seen = set()
    for _ in range(max_edges):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        builder.add_edge(u, v, float(rng.uniform(0.05, 0.9)))
    graph = builder.build()
    if lt_safe:
        sums = graph.in_probability_sums()
        scale = float(sums.max()) if sums.size else 0.0
        if scale > 1.0:
            rebuilt = GraphBuilder(num_nodes=n)
            for s, t, p in edge_list(graph):
                rebuilt.add_edge(s, t, p / (scale * 1.01))
            graph = rebuilt.build()
    return graph


class TestExactInclusionIC:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_vectorized_ic_matches_enumeration(self, graph_seed):
        graph = random_tiny_graph(graph_seed)
        sampler = VectorizedICSampler(graph, block_size=128)
        root = int(np.diff(graph.in_indptr).argmax())
        exact = exact_ic_inclusion(graph, root)
        empirical = empirical_inclusion(sampler, root, graph.num_nodes, 100 + graph_seed)
        assert_matches_exact(empirical, exact, f"ic graph_seed={graph_seed}")

    @pytest.mark.parametrize("graph_seed", [0, 1])
    def test_vectorized_triggering_ic_matches_enumeration(self, graph_seed):
        # The triggering model's IC distribution is the IC kernel's: the
        # same certificate on fresh draws.
        graph = random_tiny_graph(graph_seed)
        sampler = VectorizedICSampler(graph, block_size=128)
        root = int(np.diff(graph.in_indptr).argmax())
        exact = exact_ic_inclusion(graph, root)
        empirical = empirical_inclusion(sampler, root, graph.num_nodes, 200 + graph_seed)
        assert_matches_exact(empirical, exact, f"triggering-ic graph_seed={graph_seed}")


class TestExactInclusionLT:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_vectorized_lt_matches_enumeration(self, graph_seed):
        graph = random_tiny_graph(graph_seed, lt_safe=True)
        sampler = VectorizedLTSampler(graph, block_size=128)
        root = int(np.diff(graph.in_indptr).argmax())
        exact = exact_lt_inclusion(graph, root)
        empirical = empirical_inclusion(sampler, root, graph.num_nodes, 300 + graph_seed)
        assert_matches_exact(empirical, exact, f"lt graph_seed={graph_seed}")

    @pytest.mark.parametrize("graph_seed", [0, 1])
    def test_vectorized_triggering_lt_matches_enumeration(self, graph_seed):
        # The triggering model's LT distribution is the LT kernel's.
        graph = random_tiny_graph(graph_seed, lt_safe=True)
        sampler = VectorizedLTSampler(graph, block_size=128)
        root = int(np.diff(graph.in_indptr).argmax())
        exact = exact_lt_inclusion(graph, root)
        empirical = empirical_inclusion(sampler, root, graph.num_nodes, 400 + graph_seed)
        assert_matches_exact(empirical, exact, f"triggering-lt graph_seed={graph_seed}")

    def test_weighted_cascade_walk_never_stops_early(self):
        # WC normalises incoming mass to exactly 1, so the only stop
        # conditions are revisit and in-degree zero; the enumeration's
        # "none" option carries zero weight and must not be sampled.
        graph = weighted_cascade(
            GraphBuilder.from_edges(
                [(0, 1), (1, 2), (2, 0), (0, 2)], num_nodes=3
            )
        )
        sampler = VectorizedLTSampler(graph, block_size=64)
        exact = exact_lt_inclusion(graph, 2)
        empirical = empirical_inclusion(sampler, 2, 3, 500)
        assert_matches_exact(empirical, exact, "wc cycle")


class TestEdgeCases:
    def build_samplers(self, graph):
        return [
            VectorizedICSampler(graph, block_size=32),
            VectorizedLTSampler(graph, block_size=32),
        ]

    def test_single_node_graph(self):
        graph = GraphBuilder(num_nodes=1).build()
        for sampler in self.build_samplers(graph):
            batch = sampler.sample_batch(np.random.default_rng(0), 50)
            assert batch.nodes.tolist() == [0] * 50
            assert batch.edges_examined.tolist() == [0] * 50

    def test_isolated_root_yields_singleton(self):
        # Node 3 has no in-edges: every RR set rooted there is {3}.
        builder = GraphBuilder(num_nodes=4)
        builder.add_edge(0, 1, 0.9)
        builder.add_edge(1, 2, 0.9)
        graph = builder.build()
        for sampler in self.build_samplers(graph):
            batch = sampler.sample_batch_rooted(
                np.random.default_rng(1), np.full(40, 3, dtype=np.int64)
            )
            assert batch.nodes.tolist() == [3] * 40
            assert batch.edges_examined.tolist() == [0] * 40

    def test_zero_probability_edges_never_traversed(self):
        # The only path into the root has probability zero end-to-end.
        builder = GraphBuilder(num_nodes=3)
        builder.add_edge(0, 2, 0.0)
        builder.add_edge(1, 2, 0.0)
        graph = builder.build()
        for sampler in self.build_samplers(graph):
            batch = sampler.sample_batch_rooted(
                np.random.default_rng(2), np.full(60, 2, dtype=np.int64)
            )
            assert batch.nodes.tolist() == [2] * 60
            # The dead edges are still *examined* (w(R) counts work).
            assert batch.edges_examined.tolist() == [2] * 60

    def test_self_loops_are_harmless(self):
        # A self-loop can only re-reach an already visited node; RR sets
        # and terminations must match the loop-free graph's semantics.
        builder = GraphBuilder(num_nodes=2)
        builder.add_edge(0, 0, 0.5)
        builder.add_edge(0, 1, 1.0)
        graph = builder.build(drop_self_loops=False)
        for sampler in self.build_samplers(graph):
            batch = sampler.sample_batch_rooted(
                np.random.default_rng(3), np.full(60, 1, dtype=np.int64)
            )
            for i in range(batch.count):
                nodes = batch.nodes[batch.offsets[i] : batch.offsets[i + 1]].tolist()
                assert nodes == [0, 1]

    def test_empty_graph_rejected(self):
        graph = GraphBuilder(num_nodes=0).build()
        with pytest.raises(ValueError, match="empty graph"):
            VectorizedICSampler(graph)


# ----------------------------------------------------------------------
# Hypothesis: structural invariants on random small graphs
# ----------------------------------------------------------------------
@st.composite
def wc_graphs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=15))
    num_edges = draw(st.integers(min_value=0, max_value=30))
    edges = [
        (draw(st.integers(0, num_nodes - 1)), draw(st.integers(0, num_nodes - 1)))
        for __ in range(num_edges)
    ]
    graph = GraphBuilder.from_edges(edges, num_nodes=num_nodes)
    return weighted_cascade(graph)


@settings(max_examples=40, deadline=None)
@given(graph=wc_graphs(), seed=st.integers(0, 2**16), block=st.integers(1, 7))
def test_blocked_rr_sets_contain_root_and_stay_in_range(graph, seed, block):
    rng = np.random.default_rng(seed)
    for sampler in (
        VectorizedICSampler(graph, block_size=block),
        VectorizedLTSampler(graph, block_size=block),
    ):
        batch = sampler.sample_batch(rng, 11)
        assert batch.count == 11
        for i in range(11):
            nodes = batch.nodes[batch.offsets[i] : batch.offsets[i + 1]]
            assert nodes.size > 0
            assert batch.roots[i] in nodes
            assert nodes.min() >= 0 and nodes.max() < graph.num_nodes
            assert np.all(np.diff(nodes) > 0)  # sorted unique


@settings(max_examples=40, deadline=None)
@given(graph=wc_graphs(), seed=st.integers(0, 2**16))
def test_blocked_rr_nodes_can_reach_root(graph, seed):
    """Live-edge subgraphs only remove edges, so every RR-set member must
    reach its root over the *full* edge set."""
    sampler = VectorizedICSampler(graph, block_size=4)
    batch = sampler.sample_batch(np.random.default_rng(seed), 9)
    full_edges = [(s, t) for s, t, _ in edge_list(graph)]
    for i in range(batch.count):
        nodes = set(batch.nodes[batch.offsets[i] : batch.offsets[i + 1]].tolist())
        reachable = reverse_reachable(graph.num_nodes, full_edges, int(batch.roots[i]))
        assert nodes <= reachable
