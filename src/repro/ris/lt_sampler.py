"""RR-set generation under the LT model: reverse random walk.

Following Section III-A of the paper, a random RR set under LT is a random
walk from the root over incoming edges.  At the current node ``u`` the walk

* stops with probability ``1 - sum_{u' in N_u^in} p_{u',u}``,
* otherwise steps to an in-neighbor ``u'`` chosen with probability
  proportional to ``p_{u',u}``, and stops if ``u'`` was already visited.

Under the weighted-cascade setting the incoming probabilities sum to one
for every node with in-neighbors, so the walk only terminates by revisiting
a node or hitting an in-degree-zero node — which matches why LT RR sets
stay small (they are simple reverse paths).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..graphs.digraph import DirectedGraph
from .rrset import FlatBatch, RRSample, RRSampler, pack_segments, uniform_rows

__all__ = ["LTReverseWalkSampler"]


class LTReverseWalkSampler(RRSampler):
    """Reverse random-walk sampler for the LT model."""

    def __init__(self, graph: DirectedGraph) -> None:
        super().__init__(graph)
        self._indptr, self._indices = graph.in_indptr, graph.in_indices
        self._in_probs = graph.in_probs
        # Prefix sums of in-probabilities let each walk step pick its
        # in-edge with a single binary search instead of a per-edge scan.
        self._prefix = np.concatenate(([0.0], np.cumsum(self._in_probs)))
        sums = graph.in_probability_sums()
        if sums.size and float(sums.max()) > 1.0 + 1e-9:
            raise ValueError("LT sampler requires incoming probabilities to sum to <= 1")
        self._sums = sums
        # Weighted-cascade fast path: when all in-edges of a node carry the
        # same probability, the step distribution is "stop with 1 - sum,
        # else uniform neighbor", which avoids the binary search.
        self._uniform = uniform_rows(self._indptr, self._in_probs)
        # Plain-Python copies of the walk's lookup tables, built lazily by
        # sample_batch: scalar indexing into lists is several times faster
        # than numpy scalar indexing, and the walk is all scalar reads.
        self._list_tables: tuple | None = None

    def _batch_tables(self) -> tuple:
        if self._list_tables is None:
            self._list_tables = (
                self._indptr.tolist(),
                self._indices.tolist(),
                self._prefix.tolist(),
                self._uniform.tolist(),
                self._sums.tolist(),
            )
        return self._list_tables

    def sample(self, rng: np.random.Generator, root: int | None = None) -> RRSample:
        """Draw one RR set; ``root`` can be pinned for testing."""
        indptr, indices = self._indptr, self._indices
        prefix = self._prefix
        if root is None:
            root = self.sample_root(rng)

        visited = {root}
        path = [root]
        edges_examined = 0
        current = root
        uniform = self._uniform
        sums = self._sums
        # Uniform draws are consumed in batches: one scalar Generator call
        # per walk step costs more than the step itself.
        buffer = rng.random(64)
        cursor = 0
        while True:
            start, stop = int(indptr[current]), int(indptr[current + 1])
            degree = stop - start
            edges_examined += degree
            if degree == 0:
                break
            if cursor >= buffer.size - 1:
                buffer = rng.random(64)
                cursor = 0
            if uniform[current]:
                # Equal in-probabilities: stop with 1 - sum, else uniform.
                total = sums[current]
                if total < 1.0:
                    if buffer[cursor] >= total:
                        cursor += 1
                        break
                    cursor += 1
                edge = start + int(buffer[cursor] * degree)
                cursor += 1
            else:
                threshold = prefix[start] + buffer[cursor]
                cursor += 1
                # First in-edge whose cumulative probability reaches the
                # draw; a draw beyond the node's incoming mass means stop.
                edge = int(np.searchsorted(prefix, threshold, side="left")) - 1
                if edge >= stop or edge < start:
                    break
            nxt = int(indices[edge])
            if nxt in visited:
                break
            visited.add(nxt)
            path.append(nxt)
            current = nxt

        nodes = np.unique(np.asarray(path, dtype=np.int32))
        return RRSample(nodes=nodes, root=root, edges_examined=edges_examined)

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` reverse walks from one stream into flat CSR arrays.

        Bit-identical to ``pack_samples(sample_many(count, rng))``: the
        walk below consumes the RNG exactly like :meth:`sample` (one
        fresh 64-draw buffer per root, the same per-step draws), but each
        finished path is sorted in place into a shared ``int32`` buffer —
        a walk never revisits a node, so the sorted path *is* the sorted
        unique node set — skipping the per-set :class:`RRSample`,
        ``np.unique`` and list plumbing.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        n = self.graph.num_nodes
        indptr, indices, prefix, uniform, sums = self._batch_tables()

        parts: list[np.ndarray] = []
        roots: list[int] = []
        edges: list[int] = []
        random = rng.random
        for _ in range(count):
            root = int(rng.integers(0, n))
            visited = {root}
            path = [root]
            edges_examined = 0
            current = root
            # Same buffered-draw protocol as sample(): one fresh 64-draw
            # buffer per root, refilled at the same cursor positions; the
            # tolist() only changes how the draws are *read*.
            buffer = random(64).tolist()
            cursor = 0
            while True:
                start = indptr[current]
                stop = indptr[current + 1]
                degree = stop - start
                edges_examined += degree
                if degree == 0:
                    break
                if cursor >= 63:
                    buffer = random(64).tolist()
                    cursor = 0
                if uniform[current]:
                    total = sums[current]
                    if total < 1.0:
                        if buffer[cursor] >= total:
                            cursor += 1
                            break
                        cursor += 1
                    edge = start + int(buffer[cursor] * degree)
                    cursor += 1
                else:
                    threshold = prefix[start] + buffer[cursor]
                    cursor += 1
                    edge = bisect_left(prefix, threshold) - 1
                    if edge >= stop or edge < start:
                        break
                nxt = indices[edge]
                if nxt in visited:
                    break
                visited.add(nxt)
                path.append(nxt)
                current = nxt
            nodes = np.asarray(path, dtype=np.int32)
            nodes.sort()
            parts.append(nodes)
            roots.append(root)
            edges.append(edges_examined)
        return pack_segments(parts, roots, edges)
