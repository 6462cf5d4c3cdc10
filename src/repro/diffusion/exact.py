"""Exact influence spread for tiny graphs by live-edge enumeration.

The spread is #P-hard in general, but for graphs with a handful of edges we
can enumerate every live-edge outcome and sum probabilities exactly.  These
routines validate the simulators and the RIS estimators against the paper's
worked Example 1 (``sigma({v1}) = 3.664`` under IC, ``3.9`` under LT) and
supply ground-truth optima for approximation-ratio tests.

The worlds are enumerated once per call, in vectorized chunks: each world
carries its probability and, per node touched by an edge, the bitmask of
such nodes it reaches (a transitive closure over the world's live edges).
A seed set scores ``sum_w P(w) * popcount(OR of its nodes' bitmasks)``, plus
one per seed no edge touches — so :func:`exact_optimum` pays for the
enumeration once, not once per candidate set.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

import numpy as np

from ..graphs.digraph import DirectedGraph
from .base import seeds_to_array
from .lt import check_lt_feasible

__all__ = [
    "exact_spread_ic",
    "exact_spread_lt",
    "exact_optimum",
]

_MAX_IC_EDGES = 22
_MAX_LT_OUTCOMES = 2_000_000
#: Worlds closed and scored per vectorized step.
_CHUNK = 1 << 15
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _ic_worlds(graph: DirectedGraph):
    """IC: every edge subset is a world; edge ``e`` is bit ``e`` of its index.
    Returns ``(sources, targets, chunks)``, ``chunks`` yielding ``(P(w), live)``."""
    m = graph.num_edges
    if m > _MAX_IC_EDGES:
        raise ValueError(f"exact IC enumeration limited to {_MAX_IC_EDGES} edges, got {m}")
    sources, targets, edge_probs = graph.edge_arrays()

    def chunks():
        for start in range(0, 1 << m, _CHUNK):
            masks = np.arange(start, min(start + _CHUNK, 1 << m), dtype=np.int64)
            live = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
            probs = np.ones(masks.size)
            for edge, p in enumerate(edge_probs):
                probs *= np.where(live[:, edge], p, 1.0 - p)
            yield probs, live

    return sources, targets, chunks()


def _lt_worlds(graph: DirectedGraph):
    """LT: each node keeps at most one live in-edge (``<u, v>`` with probability
    ``p_{u,v}``, none with the remainder); a world is one choice per node."""
    check_lt_feasible(graph)
    choices = []  # per node with in-edges: (option probabilities, edge ids; -1 = none)
    sources: List[int] = []
    targets: List[int] = []
    num_outcomes = 1
    for v in range(graph.num_nodes):
        in_probs = graph.in_probabilities(v)
        if not in_probs.size:
            continue
        probs, edges = list(in_probs), list(range(len(sources), len(sources) + in_probs.size))
        sources.extend(graph.in_neighbors(v))
        targets.extend([v] * in_probs.size)
        slack = 1.0 - float(in_probs.sum())
        if slack > 1e-12:
            probs.append(slack)
            edges.append(-1)
        choices.append((np.asarray(probs, dtype=float), np.asarray(edges)))
        num_outcomes *= len(probs)
        if num_outcomes > _MAX_LT_OUTCOMES:
            raise ValueError(f"exact LT enumeration limited to {_MAX_LT_OUTCOMES} outcomes")

    def chunks():
        for start in range(0, num_outcomes, _CHUNK):
            rest = np.arange(start, min(start + _CHUNK, num_outcomes), dtype=np.int64)
            probs = np.ones(rest.size)
            live = np.zeros((rest.size, len(sources)), dtype=bool)
            for options, edges in choices:
                rest, pick = np.divmod(rest, options.size)
                probs *= options[pick]
                chosen = edges[pick]
                rows = np.flatnonzero(chosen >= 0)
                live[rows, chosen[rows]] = True
            yield probs, live

    return sources, targets, chunks()


def _spreads(graph: DirectedGraph, model: str, seed_sets: Sequence[Iterable[int]]):
    """Exact ``sigma(S)`` of every seed set ``S``, the worlds enumerated once."""
    sources, targets, chunks = (_ic_worlds if model == "ic" else _lt_worlds)(graph)
    # Only nodes some edge touches can reach others; renumber them 0 .. t-1.
    touched = np.unique(np.concatenate([sources, targets]).astype(np.int64))
    index = np.full(graph.num_nodes, -1, dtype=np.int64)
    index[touched] = np.arange(touched.size)
    edges = list(zip(index[np.asarray(sources, dtype=np.int64)], index[targets]))
    words = max(1, -(-touched.size // 64))
    slots = np.arange(touched.size)
    seed_ids = [index[seeds_to_array(seeds, graph.num_nodes)] for seeds in seed_sets]
    expected = np.zeros(len(seed_ids))
    mass = 0.0
    for probs, live in chunks:
        # reach[w, i]: bitmask of the touched nodes node i reaches in world w.
        reach = np.zeros((probs.size, touched.size, words), dtype=np.uint64)
        reach[:, slots, slots // 64] = np.left_shift(np.uint64(1), (slots % 64).astype(np.uint64))
        for __ in range(max(touched.size - 1, 1)):  # a path has < t edges
            before = reach.copy()
            for edge, (u, v) in enumerate(edges):
                reach[:, u] |= np.where(live[:, edge, None], reach[:, v], np.uint64(0))
            if np.array_equal(before, reach):
                break
        mass += float(probs.sum())
        for i, ids in enumerate(seed_ids):
            if (ids >= 0).any():
                union = np.bitwise_or.reduce(reach[:, ids[ids >= 0]], axis=1)
                sizes = _POPCOUNT8[union.view(np.uint8)].reshape(probs.size, -1).sum(axis=1)
                expected[i] += float(probs @ sizes)
    # A seed no edge touches reaches itself in every world.
    return expected + mass * np.array([(ids < 0).sum() for ids in seed_ids])


def exact_spread_ic(graph: DirectedGraph, seeds: Iterable[int]) -> float:
    """Exact ``sigma(seeds)`` under IC via enumeration of edge subsets.

    Exponential in the edge count; refuses graphs with more than
    ``2**22`` outcomes.
    """
    return float(_spreads(graph, "ic", [seeds])[0])


def exact_spread_lt(graph: DirectedGraph, seeds: Iterable[int]) -> float:
    """Exact ``sigma(seeds)`` under LT via enumeration of triggering choices.

    Each node independently keeps at most one live in-edge (edge ``<u, v>``
    with probability ``p_{u,v}``, none with the remainder); the spread is
    the probability-weighted reachable-set size over all combinations.
    """
    return float(_spreads(graph, "lt", [seeds])[0])


def exact_optimum(
    graph: DirectedGraph,
    k: int,
    model: str = "ic",
    candidates: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], float]:
    """Brute-force the optimal size-``k`` seed set on a tiny graph.

    Returns ``(best_seed_tuple, best_exact_spread)``: the first of the
    ``itertools.combinations`` order among the sets of largest spread.  The
    worlds are enumerated once and every candidate set is scored on them.
    Only sensible for graphs small enough for :func:`exact_spread_ic` /
    :func:`exact_spread_lt`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pool = list(candidates) if candidates is not None else list(range(graph.num_nodes))
    combos = list(itertools.combinations(pool, min(k, len(pool))))
    values = _spreads(graph, model, combos)
    best = int(np.argmax(values))
    return combos[best], float(values[best])
