"""Property-based tests (hypothesis) for the RIS layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import GraphBuilder, weighted_cascade
from repro.ris import (
    FlatRRCollection,
    ICReverseBFSSampler,
    LTReverseWalkSampler,
    SubsimSampler,
    append_batch,
    pack_samples,
)
from tests.conftest import round_robin_stores


@st.composite
def wc_graphs(draw):
    """A random weighted-cascade graph with at least one node."""
    num_nodes = draw(st.integers(min_value=1, max_value=15))
    num_edges = draw(st.integers(min_value=0, max_value=30))
    edges = [
        (draw(st.integers(0, num_nodes - 1)), draw(st.integers(0, num_nodes - 1)))
        for __ in range(num_edges)
    ]
    graph = GraphBuilder.from_edges(edges, num_nodes=num_nodes)
    return weighted_cascade(graph)


@settings(max_examples=50, deadline=None)
@given(graph=wc_graphs(), seed=st.integers(0, 2**16))
def test_rr_sets_contain_root_and_stay_in_range(graph, seed):
    rng = np.random.default_rng(seed)
    for sampler_cls in (ICReverseBFSSampler, SubsimSampler, LTReverseWalkSampler):
        sampler = sampler_cls(graph)
        for __ in range(5):
            sample = sampler.sample(rng)
            assert sample.root in sample
            assert sample.nodes.min() >= 0
            assert sample.nodes.max() < graph.num_nodes
            assert np.all(np.diff(sample.nodes) > 0)  # sorted unique


@settings(max_examples=50, deadline=None)
@given(graph=wc_graphs(), seed=st.integers(0, 2**16))
def test_rr_nodes_can_reach_root(graph, seed):
    """Every node in an RR set must reach the root in the full graph
    (live-edge subgraphs only remove edges)."""
    rng = np.random.default_rng(seed)
    sampler = ICReverseBFSSampler(graph)
    sample = sampler.sample(rng)

    # Reverse BFS over *all* edges gives the superset of any RR set.
    reachable = {sample.root}
    frontier = [sample.root]
    while frontier:
        node = frontier.pop()
        for pred in graph.in_neighbors(node):
            if int(pred) not in reachable:
                reachable.add(int(pred))
                frontier.append(int(pred))
    assert set(sample.nodes.tolist()) <= reachable


@settings(max_examples=50, deadline=None)
@given(graph=wc_graphs(), seed=st.integers(0, 2**16), parts=st.integers(1, 4))
def test_collection_counts_are_partition_invariant(graph, seed, parts):
    """Splitting samples across collections preserves aggregate counts."""
    rng = np.random.default_rng(seed)
    sampler = ICReverseBFSSampler(graph)
    samples = sampler.sample_many(20, rng)

    (whole,) = round_robin_stores(samples, graph.num_nodes, 1)
    pieces = round_robin_stores(samples, graph.num_nodes, parts)

    combined = sum(
        (p.coverage_counts() for p in pieces),
        start=np.zeros(graph.num_nodes, dtype=np.int64),
    )
    assert np.array_equal(combined, whole.coverage_counts())
    assert sum(p.total_size for p in pieces) == whole.total_size


@settings(max_examples=40, deadline=None)
@given(graph=wc_graphs(), seed=st.integers(0, 2**16))
def test_inverted_index_matches_membership(graph, seed):
    rng = np.random.default_rng(seed)
    sampler = ICReverseBFSSampler(graph)
    collection = FlatRRCollection(graph.num_nodes)
    append_batch(collection, pack_samples(sampler.sample_many(15, rng)))
    for node in range(graph.num_nodes):
        via_index = set(collection.sets_containing(node).tolist())
        via_scan = {
            idx for idx in range(collection.num_sets)
            if node in collection.get(idx)
        }
        assert via_index == via_scan
