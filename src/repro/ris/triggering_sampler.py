"""RR-set generation under the general triggering model.

Definition 1 and Lemma 3 of the paper are stated for the *triggering
model*, which subsumes IC and LT.  This sampler implements the
definition literally for any :class:`TriggeringDistribution`: walk
backwards from a uniform root, and at each newly visited node sample its
live in-edges from the node's triggering distribution.

Sampling lazily (only for visited nodes) is distributionally identical
to sampling the whole live-edge graph up front, because triggering sets
are independent across nodes — the specialised IC and LT samplers are
just optimised versions of this one, and the tests hold all three to the
same empirical distribution.  A scalar reference: it draws from a
generator, one :meth:`TriggeringRRSampler.sample` at a time (the base
class's ``sample_batch``), never through ``sample_set_range``.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.triggering import (
    ICTriggering,
    LTTriggering,
    TriggeringDistribution,
)
from ..graphs.digraph import DirectedGraph
from .rrset import RRSample, RRSampler

__all__ = ["TriggeringRRSampler"]


class TriggeringRRSampler(RRSampler):
    """Reverse sampling for an arbitrary triggering distribution.

    Parameters
    ----------
    graph:
        Weighted directed graph.
    distribution:
        The per-node triggering-set sampler; pass
        :class:`~repro.diffusion.triggering.ICTriggering` or
        :class:`~repro.diffusion.triggering.LTTriggering` to recover the
        specialised samplers' distributions exactly.
    """

    def __init__(self, graph: DirectedGraph, distribution: TriggeringDistribution) -> None:
        super().__init__(graph)
        self.distribution = distribution
        self._visited = np.zeros(graph.num_nodes, dtype=bool)
        # True while a draw is in flight; left set by a draw that raised,
        # which makes the next draw hard-reset the scratch bitmap.
        self._scratch_dirty = False

    def _reset_scratch(self) -> None:
        if self._scratch_dirty:
            self._visited[:] = False
        self._scratch_dirty = True

    def _live_in_edges(self, node: int, rng: np.random.Generator) -> np.ndarray:
        """Sources of the live in-edges of one node (its triggering set)."""
        graph = self.graph
        start, stop = int(graph.in_indptr[node]), int(graph.in_indptr[node + 1])
        if start == stop:
            return np.empty(0, dtype=np.int64)
        probs = graph.in_probs[start:stop]
        sources = graph.in_indices[start:stop]
        if isinstance(self.distribution, ICTriggering):
            live = rng.random(stop - start) < probs
            return sources[live].astype(np.int64)
        if isinstance(self.distribution, LTTriggering):
            draw = float(rng.random())
            cumulative = np.cumsum(probs)
            position = int(np.searchsorted(cumulative, draw, side="left"))
            if position >= probs.size:
                return np.empty(0, dtype=np.int64)
            return np.asarray([sources[position]], dtype=np.int64)
        # Generic fallback: let the distribution sample the whole live-edge
        # graph and filter this node's in-edges.  Correct for any
        # distribution, at full-graph sampling cost per visited node.
        live_sources, live_targets = self.distribution.sample_live_edges(
            graph, rng
        )
        return live_sources[live_targets == node].astype(np.int64)

    def sample(self, rng: np.random.Generator, root: int | None = None) -> RRSample:
        """Draw one RR set; ``root`` can be pinned for testing."""
        graph = self.graph
        if root is None:
            root = self.sample_root(rng)
        self._reset_scratch()
        visited = self._visited
        collected = [root]
        visited[root] = True
        queue = [root]
        edges_examined = 0
        while queue:
            node = queue.pop()
            edges_examined += graph.in_degree(node)
            for source in self._live_in_edges(node, rng):
                source = int(source)
                if not visited[source]:
                    visited[source] = True
                    collected.append(source)
                    queue.append(source)
        visited[np.asarray(collected, dtype=np.int64)] = False
        self._scratch_dirty = False
        nodes = np.unique(np.asarray(collected, dtype=np.int32))
        return RRSample(nodes=nodes, root=root, edges_examined=edges_examined)
