"""Incremental construction of :class:`~repro.graphs.digraph.DirectedGraph`.

:class:`GraphBuilder` accumulates edges in Python lists and converts them to
CSR arrays once, which is far cheaper than repeatedly resizing numpy arrays.
It optionally deduplicates parallel edges (keeping the last probability) and
can mirror every edge to model undirected networks such as the Facebook
friendship graph.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .digraph import DirectedGraph, _pair_order, _pair_starts

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates edges and finalises them into a :class:`DirectedGraph`.

    Parameters
    ----------
    num_nodes:
        Optional node count.  When omitted, the node count is inferred as
        ``max(node id) + 1`` at :meth:`build` time.
    undirected:
        When true, :meth:`add_edge` inserts both ``<u, v>`` and ``<v, u>``.

    Examples
    --------
    >>> builder = GraphBuilder(num_nodes=3)
    >>> builder.add_edge(0, 1, 0.5)
    >>> builder.add_edge(1, 2, 0.25)
    >>> graph = builder.build()
    >>> graph.num_edges
    2
    """

    def __init__(self, num_nodes: int | None = None, undirected: bool = False) -> None:
        if num_nodes is not None and num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = num_nodes
        self._undirected = bool(undirected)
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._probs: list[float] = []

    def __len__(self) -> int:
        """Number of directed edges accumulated so far."""
        return len(self._sources)

    def add_edge(self, u: int, v: int, prob: float = 0.0) -> None:
        """Add the directed edge ``<u, v>`` (and ``<v, u>`` if undirected)."""
        if u < 0 or v < 0:
            raise ValueError(f"node ids must be non-negative, got <{u}, {v}>")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {prob}")
        self._sources.append(u)
        self._targets.append(v)
        self._probs.append(prob)
        if self._undirected and u != v:
            self._sources.append(v)
            self._targets.append(u)
            self._probs.append(prob)

    def add_edges(self, edges: Iterable[Tuple[int, int] | Tuple[int, int, float]]) -> None:
        """Add many edges; each item is ``(u, v)`` or ``(u, v, prob)``."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            else:
                self.add_edge(edge[0], edge[1], edge[2])

    def build(
        self,
        dedup: bool = True,
        drop_self_loops: bool = True,
    ) -> DirectedGraph:
        """Finalise accumulated edges into a :class:`DirectedGraph`.

        Parameters
        ----------
        dedup:
            Remove parallel edges, keeping the last probability inserted
            for each ``(u, v)`` pair.
        drop_self_loops:
            Remove edges whose endpoints coincide (self-influence is
            meaningless in IC/LT diffusion).
        """
        src = np.asarray(self._sources, dtype=np.int64)
        dst = np.asarray(self._targets, dtype=np.int64)
        prob = np.asarray(self._probs, dtype=np.float64)

        if drop_self_loops and src.size:
            keep = src != dst
            src, dst, prob = src[keep], dst[keep], prob[keep]

        num_nodes = self._num_nodes
        if num_nodes is None:
            num_nodes = int(max(src.max(), dst.max())) + 1 if src.size else 0

        if dedup and src.size:
            # Stable (src, dst) order, then keep the *last* occurrence of
            # each pair so a later add_edge overrides an earlier
            # duplicate's probability.
            order = _pair_order(src, dst, num_nodes)
            last = np.ones(order.size, dtype=bool)
            last[:-1] = _pair_starts(src[order], dst[order])[1:]
            chosen = order[last]
            src, dst, prob = src[chosen], dst[chosen], prob[chosen]

        return DirectedGraph(num_nodes, src, dst, prob)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int] | Tuple[int, int, float]],
        num_nodes: int | None = None,
        undirected: bool = False,
    ) -> DirectedGraph:
        """One-shot convenience: build a graph directly from an edge iterable."""
        builder = cls(num_nodes=num_nodes, undirected=undirected)
        builder.add_edges(edges)
        return builder.build()
