"""Synthetic graph generators.

These generators produce the stand-in workloads for the paper's SNAP
datasets (see DESIGN.md).  All of them draw randomness from an explicit
``numpy.random.Generator`` so runs are reproducible, and all return a
:class:`~repro.graphs.digraph.DirectedGraph` with zero edge probabilities
(apply a scheme from :mod:`repro.graphs.weights` afterwards).

The heavy-tailed generators matter most: RR-set generation cost under the
weighted-cascade setting is driven by the in-degree distribution, so the
Chung-Lu and R-MAT generators are what make the scaled stand-ins behave
like Google+/Twitter.
"""

from __future__ import annotations

import numpy as np

from .builder import GraphBuilder
from .digraph import DirectedGraph, _pair_order, _pair_starts

__all__ = [
    "paper_example_graph",
    "paper_coverage_example",
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "chung_lu",
    "rmat",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
]


def paper_example_graph() -> DirectedGraph:
    """The 4-node graph of the paper's Fig. 1 with its edge probabilities.

    Nodes ``0..3`` map to the paper's ``v1..v4``.  Under the IC model
    ``sigma({v1}) = 3.664``; under LT ``sigma({v1}) = 3.9`` (Example 1).
    """
    edges = [
        (0, 1, 1.0),  # v1 -> v2
        (0, 2, 1.0),  # v1 -> v3
        (0, 3, 0.4),  # v1 -> v4
        (1, 3, 0.3),  # v2 -> v4
        (2, 3, 0.2),  # v3 -> v4
    ]
    return GraphBuilder.from_edges(edges, num_nodes=4)


def paper_coverage_example() -> list[set[int]]:
    """The 6 RR sets of the paper's Fig. 2 (Example 3), nodes as ``0..4``.

    Selecting ``{v1, v2}`` (ids ``{0, 1}``) covers all six RR sets.
    """
    return [
        {0, 1},  # R1: v1, v2
        {1, 2},  # R2: v2, v3
        {0, 2},  # R3: v1, v3
        {1, 4},  # R4: v2, v5
        {0, 3},  # R5: v1, v4
        {1, 3},  # R6: v2, v4
    ]


def _dedup_random_edges(
    num_nodes: int,
    sources: np.ndarray,
    targets: np.ndarray,
) -> DirectedGraph:
    """Drop self loops and duplicates from sampled endpoint arrays.

    The first draw of each ``(source, target)`` pair stays, and the edges
    come out in pair order, as ``np.unique(pair keys, return_index=True)``
    would list them.
    """
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    order = _pair_order(sources, targets, num_nodes)
    sources, targets = sources[order], targets[order]
    first = _pair_starts(sources, targets)
    return DirectedGraph(num_nodes, sources[first], targets[first])


def _draw_from(p: np.ndarray, sizes, rng: np.random.Generator) -> list:
    """``[rng.choice(p.size, size, p=p) for size in sizes]``, value for
    value and draw for draw: the inverse CDF of one ``rng.random(size)``
    per size, looked up in a table of ``2**k >= 8 * p.size`` equal buckets
    of ``[0, 1)``.

    A sample ``u`` in bucket ``j = floor(u * 2**k)`` (exact for a power of
    two) has between ``first[j]`` and ``first[j + 1]`` CDF values at or
    below it, so only samples in a bucket that holds a CDF boundary (at
    most an eighth of them, in expectation) are searched.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (int(p.size - 1).bit_length() + 3)
    first = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
    drawn = []
    for size in sizes:
        draws = rng.random(size)
        bucket = (draws * buckets).astype(np.int32)
        picks = first[bucket]
        split = np.flatnonzero(first[1:][bucket] != picks)
        picks[split] = np.searchsorted(cdf, draws[split], side="right")
        drawn.append(picks)
    return drawn


def erdos_renyi(
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
) -> DirectedGraph:
    """Directed G(n, M) graph: ``num_edges`` edges sampled uniformly.

    Self loops and duplicates are removed, so the realised edge count can be
    slightly below ``num_edges`` for dense requests.
    """
    if num_nodes <= 1:
        return DirectedGraph(num_nodes, [], [])
    sources = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    targets = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    return _dedup_random_edges(num_nodes, sources, targets)


def barabasi_albert(
    num_nodes: int,
    attach: int,
    rng: np.random.Generator,
) -> DirectedGraph:
    """Undirected preferential attachment, mirrored into a directed graph.

    Each arriving node connects to ``attach`` existing nodes chosen with
    probability proportional to their current degree (implemented with the
    standard repeated-endpoints trick).  Produces the Facebook-like
    stand-in: heavy clustering of early nodes, undirected edges.
    """
    if attach < 1:
        raise ValueError(f"attach must be >= 1, got {attach}")
    if num_nodes <= attach:
        raise ValueError("num_nodes must exceed attach")
    # repeated_nodes holds one entry per half-edge: sampling uniformly from
    # it is sampling proportionally to degree.
    repeated: list[int] = []
    builder = GraphBuilder(num_nodes=num_nodes, undirected=True)
    for new_node in range(attach, num_nodes):
        if not repeated:
            chosen = set(range(attach))
        else:
            chosen = set()
            while len(chosen) < attach:
                chosen.add(int(repeated[rng.integers(0, len(repeated))]))
        for node in chosen:
            builder.add_edge(new_node, node)
            repeated.append(new_node)
            repeated.append(node)
    return builder.build()


def watts_strogatz(
    num_nodes: int,
    neighbors: int,
    rewire_prob: float,
    rng: np.random.Generator,
) -> DirectedGraph:
    """Small-world ring lattice with random rewiring, mirrored directed.

    Each node starts connected to its ``neighbors // 2`` clockwise ring
    neighbours; each lattice edge is rewired to a random target with
    probability ``rewire_prob``.
    """
    if neighbors % 2 or neighbors < 2:
        raise ValueError(f"neighbors must be even and >= 2, got {neighbors}")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValueError(f"rewire_prob must lie in [0, 1], got {rewire_prob}")
    half = neighbors // 2
    builder = GraphBuilder(num_nodes=num_nodes, undirected=True)
    for u in range(num_nodes):
        for offset in range(1, half + 1):
            v = (u + offset) % num_nodes
            if rng.random() < rewire_prob:
                v = int(rng.integers(0, num_nodes))
                while v == u:
                    v = int(rng.integers(0, num_nodes))
            builder.add_edge(u, v)
    return builder.build()


def chung_lu(
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
    exponent: float = 2.5,
    min_weight: float = 1.0,
) -> DirectedGraph:
    """Directed Chung-Lu graph with Pareto(``exponent``) expected degrees.

    Endpoints of each edge are drawn independently in proportion to per-node
    weights ``w_i ~ Pareto``, giving a power-law in- and out-degree
    distribution — the LiveJournal-like stand-in.
    """
    if exponent <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    weights = min_weight * (1.0 + rng.pareto(exponent - 1.0, size=num_nodes))
    prob = weights / weights.sum()
    sources, targets = _draw_from(prob, (num_edges, num_edges), rng)
    return _dedup_random_edges(num_nodes, sources, targets)


def rmat(
    scale: int,
    edge_factor: int,
    rng: np.random.Generator,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> DirectedGraph:
    """R-MAT / stochastic Kronecker graph on ``2**scale`` nodes.

    The recursive quadrant probabilities ``(a, b, c, d)`` default to the
    Graph500 values, producing the skewed, hub-dominated structure of the
    Twitter follower graph.  ``d = 1 - a - b - c``.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("quadrant probabilities must sum to at most 1")
    num_nodes = 1 << scale
    num_edges = num_nodes * edge_factor
    ids = np.uint16 if scale <= 16 else np.uint32
    sources = np.zeros(num_edges, dtype=ids)
    targets = np.zeros(num_edges, dtype=ids)
    draws = np.empty(num_edges)
    passed = np.empty(num_edges, dtype=bool)
    # Vectorised recursive descent, in place: one random draw per (edge,
    # bit).  The quadrants a | b | c | d split [0, 1) at a, a + b and
    # a + b + c: the bottom half (c, d) sets the source bit, and the right
    # column (b, d) is an odd number of thresholds passed.
    for __ in range(scale):
        rng.random(out=draws)
        sources <<= 1
        targets <<= 1
        np.greater_equal(draws, a, out=passed)
        targets ^= passed
        np.greater_equal(draws, a + b, out=passed)
        targets ^= passed
        sources |= passed
        np.greater_equal(draws, a + b + c, out=passed)
        targets ^= passed
    return _dedup_random_edges(num_nodes, sources, targets)


# ----------------------------------------------------------------------
# Deterministic small graphs (test fixtures)
# ----------------------------------------------------------------------
def star_graph(num_leaves: int, outward: bool = True) -> DirectedGraph:
    """Star with hub node ``0``; edges point hub->leaf when ``outward``."""
    edges = []
    for leaf in range(1, num_leaves + 1):
        edges.append((0, leaf) if outward else (leaf, 0))
    return GraphBuilder.from_edges(edges, num_nodes=num_leaves + 1)


def path_graph(num_nodes: int) -> DirectedGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    edges = [(i, i + 1) for i in range(num_nodes - 1)]
    return GraphBuilder.from_edges(edges, num_nodes=num_nodes)


def cycle_graph(num_nodes: int) -> DirectedGraph:
    """Directed cycle on ``num_nodes`` nodes."""
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return GraphBuilder.from_edges(edges, num_nodes=num_nodes)


def complete_graph(num_nodes: int) -> DirectedGraph:
    """Complete directed graph (both directions, no self loops)."""
    edges = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    return GraphBuilder.from_edges(edges, num_nodes=num_nodes)
