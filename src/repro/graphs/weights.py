"""Edge weighting schemes for influence propagation probabilities.

The paper (Section IV-A) sets ``p_{u,v}`` to the reciprocal of ``v``'s
in-degree — the *weighted cascade* (WC) setting used by most influence
maximization studies.  We also provide the two other common settings from
the literature, *trivalency* (TR) and *uniform* (UN), so ablations can vary
the weighting scheme.

All functions return a new :class:`DirectedGraph`; the input is untouched.
The new graph shares the input's out-CSR structure and sorts no edge list:
the probabilities take their in-CSR order from one counting pass over the
targets (:meth:`~repro.graphs.digraph.DirectedGraph.with_probabilities`).
"""

from __future__ import annotations

import numpy as np

from .digraph import DirectedGraph

__all__ = [
    "weighted_cascade",
    "trivalency",
    "uniform",
    "TRIVALENCY_CHOICES",
]

#: The canonical trivalency probabilities of Chen et al. (KDD 2010).
TRIVALENCY_CHOICES: tuple[float, float, float] = (0.1, 0.01, 0.001)


def weighted_cascade(graph: DirectedGraph) -> DirectedGraph:
    """Assign ``p_{u,v} = 1 / indeg(v)`` to every edge (the paper's setting).

    Under the LT interpretation the incoming probabilities of every node sum
    to exactly one, which satisfies the LT constraint
    ``sum_{u in N_v^in} p_{u,v} <= 1`` with equality.
    """
    indeg = graph.in_degrees().astype(np.float64)
    # Nodes with zero in-degree never appear as a target, so the division
    # below only ever reads positive degrees; guard anyway for empty graphs.
    safe = np.where(indeg > 0, indeg, 1.0)
    probs = 1.0 / safe[graph.out_indices]
    return graph.with_probabilities(probs)


def trivalency(
    graph: DirectedGraph,
    rng: np.random.Generator,
    choices: tuple[float, ...] = TRIVALENCY_CHOICES,
) -> DirectedGraph:
    """Assign each edge a probability drawn uniformly from ``choices``.

    This is the TR model of Chen et al.; note it does not satisfy the LT
    constraint in general and should only be paired with the IC model.
    """
    probs = rng.choice(np.asarray(choices, dtype=np.float64), size=graph.num_edges)
    return graph.with_probabilities(probs)


def uniform(graph: DirectedGraph, prob: float) -> DirectedGraph:
    """Assign the same probability ``prob`` to every edge."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must lie in [0, 1], got {prob}")
    probs = np.full(graph.num_edges, prob, dtype=np.float64)
    return graph.with_probabilities(probs)
