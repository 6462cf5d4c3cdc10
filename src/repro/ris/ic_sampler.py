"""RR-set generation under the IC model: reverse stochastic BFS.

Following Section III-A of the paper, a random RR set under IC is built by

1. picking a root ``v`` uniformly at random,
2. running a BFS from ``v`` that follows *incoming* edges, traversing each
   edge ``<u', u>`` independently with probability ``p_{u',u}``,
3. returning every node the BFS reached (including ``v``).

Each frontier is processed with one vectorised coin-flip batch over all of
its in-edges, which is what makes pure-Python sampling viable on the
scaled datasets.  :meth:`ICReverseBFSSampler.sample_batch` runs the same
reverse BFS over many roots per call, writing wave-at-a-time into one
growing CSR buffer — consuming the RNG stream identically to repeated
:meth:`~ICReverseBFSSampler.sample` calls (differentially tested) while
skipping every per-set Python object.  It is the generator-coin oracle
the keyed kernel (:class:`~repro.ris.vectorized.VectorizedICSampler`,
what ``make_sampler`` returns for IC) is held to in distribution.
"""

from __future__ import annotations

import numpy as np

from ..graphs.digraph import DirectedGraph
from .rrset import FlatBatch, RRSample, RRSampler

__all__ = ["ICReverseBFSSampler"]


def _grow(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """Return ``buffer`` (or a doubled copy) with room for ``needed`` items."""
    if needed <= buffer.size:
        return buffer
    # A zero-size buffer would make the doubling loop spin forever.
    capacity = max(buffer.size, 1)
    while capacity < needed:
        capacity *= 2
    grown = np.empty(capacity, dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


class ICReverseBFSSampler(RRSampler):
    """Stochastic reverse BFS sampler for the IC model.

    The coins of a wave are mapped to in-edges in frontier order, each
    row's order preserved.
    """

    def __init__(self, graph: DirectedGraph) -> None:
        super().__init__(graph)
        self._indptr, self._indices = graph.in_indptr, graph.in_indices
        self._probs = graph.in_probs
        self._visited = np.zeros(graph.num_nodes, dtype=bool)
        # True while a draw is in flight; a draw that raised mid-BFS leaves
        # it set, and the next draw hard-resets the scratch bitmap instead
        # of trusting the (possibly partial) incremental reset.
        self._scratch_dirty = False
        # Lazy plain-Python indptr copy for sample_batch's single-node
        # frontier fast path (list scalar reads beat numpy scalar reads).
        self._indptr_list: list[int] | None = None

    def _reset_scratch(self) -> None:
        if self._scratch_dirty:
            self._visited[:] = False
        self._scratch_dirty = True

    def _frontier_rows(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(probs, indices)`` of the frontier's in-edges, frontier order."""
        indptr = self._indptr
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = counts.cumsum()
        total = int(ends[-1])
        if total == 0:
            return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int32)
        edge_idx = starts.repeat(counts) + (np.arange(total) - (ends - counts).repeat(counts))
        return self._probs[edge_idx], self._indices[edge_idx]

    def sample(self, rng: np.random.Generator, root: int | None = None) -> RRSample:
        """Draw one RR set; ``root`` can be pinned for testing."""
        if root is None:
            root = self.sample_root(rng)
        self._reset_scratch()
        visited = self._visited
        collected = [root]
        visited[root] = True
        frontier = np.asarray([root], dtype=np.int64)
        edges_examined = 0

        while frontier.size:
            row_probs, row_indices = self._frontier_rows(frontier)
            total = int(row_probs.size)
            edges_examined += total
            if total == 0:
                break
            success = rng.random(total) < row_probs
            reached = row_indices[success]
            if reached.size == 0:
                break
            reached = np.unique(reached)
            newly = reached[~visited[reached]]
            visited[newly] = True
            collected.extend(int(u) for u in newly)
            frontier = newly.astype(np.int64)

        # Reset the scratch bitmap for the next sample without a full
        # O(n) clear.
        visited[np.asarray(collected, dtype=np.int64)] = False
        self._scratch_dirty = False
        nodes = np.unique(np.asarray(collected, dtype=np.int32))
        return RRSample(nodes=nodes, root=root, edges_examined=edges_examined)

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` RR sets wave-at-a-time into one flat CSR buffer.

        Bit-identical to ``pack_samples(sample_many(count, rng))``: the
        RNG-visible operations (root draw, one coin-flip batch per
        frontier) are the same sequence; only the bookkeeping around them
        changes — reached nodes land directly in a growing ``int32``
        buffer and each finished segment is sorted in place, so no
        :class:`RRSample`, per-set list, or ``np.unique`` is ever built.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        n = self.graph.num_nodes
        indices, probs = self._indices, self._probs
        if self._indptr_list is None:
            self._indptr_list = self._indptr.tolist()
        indptr_l = self._indptr_list
        self._reset_scratch()
        visited = self._visited
        random = rng.random

        buf = np.empty(max(256, 8 * count), dtype=np.int32)
        offsets = np.zeros(count + 1, dtype=np.int64)
        roots = np.empty(count, dtype=np.int64)
        edges = np.empty(count, dtype=np.int64)
        write = 0
        for j in range(count):
            root = int(rng.integers(0, n))
            segment_start = write
            buf = _grow(buf, write, write + 1)
            buf[write] = root
            write += 1
            visited[root] = True
            # ``single >= 0`` is the one-node-frontier fast path (always
            # taken on the first wave): its in-edges are one contiguous
            # CSR slice, so the repeat/cumsum index construction of the
            # general wave collapses to two array views.  Either branch
            # draws the same ``random(total)`` with coins mapped to edges
            # in the same order, so the RNG stream matches sample().
            single = root
            frontier = np.empty(0, dtype=np.int64)
            edges_examined = 0
            while True:
                if single >= 0:
                    start = indptr_l[single]
                    total = indptr_l[single + 1] - start
                    seg_probs = probs[start : start + total]
                    seg_indices = indices[start : start + total]
                    edges_examined += total
                    if total == 0:
                        break
                    success = random(total) < seg_probs
                    reached = seg_indices[success]
                else:
                    row_probs, row_indices = self._frontier_rows(frontier)
                    total = int(row_probs.size)
                    edges_examined += total
                    if total == 0:
                        break
                    success = random(total) < row_probs
                    reached = row_indices[success]
                if reached.size == 0:
                    break
                # Same set as sample()'s unique-then-filter, computed as
                # filter-then-sorted-dedupe: discard visited nodes first
                # (usually most of them), then sort in place and drop
                # adjacent repeats — cheaper than np.unique per wave.
                cand = reached[~visited[reached]]
                if cand.size == 0:
                    break
                if cand.size > 1:
                    cand.sort()
                    keep = np.empty(cand.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
                    newly = cand[keep]
                else:
                    newly = cand
                visited[newly] = True
                buf = _grow(buf, write, write + newly.size)
                buf[write : write + newly.size] = newly
                write += newly.size
                if newly.size == 1:
                    single = int(newly[0])
                else:
                    single = -1
                    frontier = newly.astype(np.int64)
            segment = buf[segment_start:write]
            visited[segment] = False
            segment.sort()
            roots[j] = root
            edges[j] = edges_examined
            offsets[j + 1] = write
        self._scratch_dirty = False
        return FlatBatch(buf[:write].copy(), offsets, roots, edges)
