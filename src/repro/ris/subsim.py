"""SUBSIM-style RR-set generation for the IC model (Guo et al., SIGMOD 2020).

The plain reverse BFS flips one coin per incoming edge of every traversed
node.  SUBSIM's *subset sampling* observes that the indices of successful
in-edges of a node with maximum in-probability ``p_max`` can be generated
directly by geometric jumps of mean ``1/p_max``: the expected work per node
drops from its in-degree to ``1 + (#successes)`` draws (times a rejection
factor when probabilities are non-uniform).

Under the paper's weighted-cascade setting all in-edges of a node share the
probability ``1/indeg``, so no rejection is ever needed and generating an
RR set costs time proportional to its *size* rather than its in-degree
volume — the source of SUBSIM's speedup in Fig. 7.

Here it is a scalar reference: one Python loop per set, drawing from a
generator through :meth:`SubsimSampler.sample` / ``sample_batch``.
D-SUBSIM draws with the keyed IC kernel (:mod:`repro.ris.vectorized`),
which samples the same distribution and measured faster on every
stand-in (DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..graphs.digraph import DirectedGraph
from .rrset import FlatBatch, RRSample, RRSampler, pack_segments, uniform_rows

__all__ = ["SubsimSampler"]


def _row_tables(indptr: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per CSR row: ``(p_max, uniform)`` — the largest probability (0 for
    an empty row) and whether the row is non-empty with all equal."""
    p_max = np.zeros(indptr.size - 1, dtype=np.float64)
    rows = np.flatnonzero(np.diff(indptr))
    if rows.size:
        # Empty rows own no entries: each reduceat segment is one row.
        p_max[rows] = np.maximum.reduceat(probs, indptr[rows])
    return p_max, uniform_rows(indptr, probs)


class SubsimSampler(RRSampler):
    """Geometric-jump (subset sampling) RR sampler for the IC model.

    Traversal arrays come from ``graph.in_csr()``; when an overlay is
    present (a :class:`~repro.graphs.digraph.VersionedGraph`) the
    geometric jumps walk the *effective* row of each node, so the draw
    sequence matches a plain sampler on the compacted graph.
    """

    def __init__(self, graph: DirectedGraph) -> None:
        super().__init__(graph)
        self._indptr, self._indices, self._probs, overlay = graph.in_csr()
        if overlay is None:
            self._ov_lookup = None
            self._ov_indptr = self._ov_indices = self._ov_probs = None
        else:
            (
                self._ov_lookup,
                self._ov_indptr,
                self._ov_indices,
                self._ov_probs,
            ) = overlay
        self._p_max, self._uniform = _row_tables(self._indptr, self._probs)
        if self._ov_lookup is not None:
            # Patched rows override whatever the base said about them.
            patched = np.flatnonzero(self._ov_lookup >= 0)
            rows = self._ov_lookup[patched]
            ov_p_max, ov_uniform = _row_tables(self._ov_indptr, self._ov_probs)
            self._p_max[patched] = ov_p_max[rows]
            self._uniform[patched] = ov_uniform[rows]
        self._visited = np.zeros(graph.num_nodes, dtype=bool)
        # True while a draw is in flight; left set by a draw that raised,
        # which makes the next draw hard-reset the scratch bitmap.
        self._scratch_dirty = False

    def _reset_scratch(self) -> None:
        if self._scratch_dirty:
            self._visited[:] = False
        self._scratch_dirty = True

    def _row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Effective in-row ``(indices, probs)`` of ``node``."""
        lookup = self._ov_lookup
        if lookup is not None:
            row = int(lookup[node])
            if row >= 0:
                start, stop = self._ov_indptr[row], self._ov_indptr[row + 1]
                return self._ov_indices[start:stop], self._ov_probs[start:stop]
        start, stop = self._indptr[node], self._indptr[node + 1]
        return self._indices[start:stop], self._probs[start:stop]

    def _successful_in_edges(
        self,
        node: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray | list[int], int]:
        """In-neighbors of ``node`` whose edges came up live.

        Returns ``(neighbors, draws)`` where ``draws`` counts the random
        positions visited — the sampler's actual work for this node.
        """
        row_indices, row_probs = self._row(node)
        degree = int(row_indices.size)
        if degree == 0:
            return (), 0
        p_max = self._p_max[node]
        if p_max <= 0.0:
            return (), 0
        if p_max >= 1.0:
            # Every edge is a candidate; fall back to direct flips.
            hits = rng.random(degree) < row_probs
            return row_indices[hits], degree
        accepted: list[int] = []
        draws = 0
        position = -1
        uniform = bool(self._uniform[node])
        while True:
            position += int(rng.geometric(p_max))
            draws += 1
            if position >= degree:
                break
            if uniform or rng.random() * p_max < row_probs[position]:
                accepted.append(int(row_indices[position]))
        return accepted, draws

    def _explore(self, rng: np.random.Generator, root: int) -> tuple[np.ndarray, int]:
        """The reverse exploration from ``root``: ``(sorted int32 nodes,
        draws)``.  It never collects a node twice, so sorting is
        ``np.unique``."""
        self._reset_scratch()
        visited = self._visited
        collected = [root]
        visited[root] = True
        queue = [root]
        edges_examined = 0
        while queue:
            node = queue.pop()
            live_neighbors, draws = self._successful_in_edges(node, rng)
            edges_examined += draws
            for neighbor in live_neighbors:
                neighbor = int(neighbor)
                if not visited[neighbor]:
                    visited[neighbor] = True
                    collected.append(neighbor)
                    queue.append(neighbor)
        nodes = np.asarray(collected, dtype=np.int32)
        visited[nodes] = False
        self._scratch_dirty = False
        nodes.sort()
        return nodes, edges_examined

    def sample(self, rng: np.random.Generator, root: int | None = None) -> RRSample:
        """Draw one RR set; ``root`` can be pinned for testing."""
        if root is None:
            root = self.sample_root(rng)
        nodes, edges_examined = self._explore(rng, root)
        return RRSample(nodes=nodes, root=root, edges_examined=edges_examined)

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` RR sets straight into flat CSR arrays, bit-identical
        to ``pack_samples(sample_many(count, rng))``: the same root draw
        and exploration per set, without the :class:`RRSample` objects."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        roots, parts, edges = [], [], []
        for _ in range(count):
            roots.append(self.sample_root(rng))
            nodes, edges_examined = self._explore(rng, roots[-1])
            parts.append(nodes)
            edges.append(edges_examined)
        return pack_segments(parts, roots, edges)
