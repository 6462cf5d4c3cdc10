"""Batched frontier kernels: hundreds of RR sets per NumPy call.

The per-set samplers (:mod:`repro.ris.ic_sampler`, :mod:`~repro.ris.lt_sampler`,
:mod:`~repro.ris.triggering_sampler`) vectorise *within* one RR set — one
coin-flip batch per frontier — but still pay Python-level bookkeeping per
set and per wave.  On the scaled datasets an RR set averages only a few
waves of a few nodes each, so that bookkeeping, not the arithmetic,
dominates generation time (the cost every phase plan is built around).

This module ports gIM's batched frontier expansion to the CSR arrays:
a *block* of RR sets advances together, one wave per step, with

* one masked gather over ``in_indptr``/``in_indices`` building the
  in-edge index of the whole block's frontier at once,
* one vectorised Bernoulli batch (IC) or one threshold/categorical draw
  per frontier node (LT / triggering) for every trial of the wave,
* visited-marks kept in a single flat block-scratch bitmap addressed by
  ``set * n + node`` keys, so per-set dedup is one ``np.unique`` over
  integer keys.

The amortised Python overhead per set drops by roughly the block size;
``benchmarks/results/micro_vectorized_generation`` tracks the measured
speedup over :meth:`~repro.ris.rrset.RRSampler.sample_batch` (>= 5x
target on the livejournal-like stand-in, >= 3x CI floor).

RNG contract
------------
Every executor, pool and service draws through
:func:`~repro.ris.rrset.sample_set_range`, which turns the coordinates
``(seed, collection key, machine, set index)`` into generators.  The IC
wave loop (:meth:`VectorizedICSampler._advance`) visits nodes and maps
coins to edges exactly like :class:`~repro.ris.ic_sampler.ICReverseBFSSampler`;
all that couples a block's sets is *where a wave's coins come from*:

* **one generator per set** (:meth:`~VectorizedICSampler.sample_sets`,
  ``method="bfs"``): set ``j`` takes its root from
  ``rngs[j].integers(0, n)`` and each wave's coins from ``rngs[j]``
  alone.  The frontier is sorted by ``set * n + node``, so those coins
  are one contiguous run in the scalar sampler's frontier order, and a
  set with nothing to flip draws nothing — the sequence of calls on
  ``rngs[j]`` *is* the scalar sampler's.  Bit-identical to
  ``ICReverseBFSSampler.sample_batch(rngs[j], 1)`` at any block size
  (``tests/ris/test_batch_samplers.py::TestSampleSets``), so pools serve
  prefixes and repairs redraw any subset without moving a byte.
* **one generator for the block** (``sample_batch``,
  ``method="vectorized"``): one ``rng.random(total)`` covers a wave of
  many sets, so the draws differ bit-for-bit from the per-set source and
  are held to it by the *statistical-equivalence* harness
  (``tests/ris/equivalence.py``); at ``block_size=1`` they coincide
  (``tests/ris/test_vectorized_equivalence.py::TestBitIdentity``).  A
  set's bytes depend on where its draw started: pools refuse the method.

The LT kernel has the block source only.

Scratch memory is one byte per visited-mark, ``num_nodes`` per set of
the largest block drawn so far (at most ``block_size`` sets), in a
mapping of its own (:func:`_cleared`).  When ``block_size`` is not given,
each sampler picks one from the graph size (:data:`DEFAULT_BLOCK` /
:data:`DEFAULT_SCRATCH_BYTES`); pass an explicit value to trade memory
against per-wave overhead on unusual graphs.
"""

from __future__ import annotations

import mmap
from contextlib import suppress
from itertools import islice

import numpy as np

from ..diffusion.triggering import (
    ICTriggering,
    LTTriggering,
    TriggeringDistribution,
)
from ..graphs.digraph import DirectedGraph
from .rrset import FlatBatch, RRSample, RRSampler, concat_batches, uniform_rows

__all__ = [
    "DEFAULT_BLOCK",
    "VectorizedICSampler",
    "VectorizedLTSampler",
    "VectorizedTriggeringSampler",
]

#: Largest auto-chosen number of RR sets advanced per frontier block.
#: When ``block_size`` is not given, the samplers pick the biggest block
#: whose visited scratch (``block * num_nodes`` bytes) stays within
#: :data:`DEFAULT_SCRATCH_BYTES`, capped here — larger blocks amortise
#: the per-wave NumPy call overhead better but stop paying once the
#: scratch spills out of cache.  A throughput knob, never a correctness
#: one.
DEFAULT_BLOCK = 1024

#: Scratch budget steering the automatic block size.
DEFAULT_SCRATCH_BYTES = 64 << 20


def _auto_block(num_nodes: int) -> int:
    return max(64, min(DEFAULT_BLOCK, DEFAULT_SCRATCH_BYTES // max(num_nodes, 1)))


def _cleared(size: int) -> np.ndarray:
    """``size`` cleared visited-marks in a private anonymous mapping.

    Always fresh zero pages, given back whole when dropped; ``np.zeros``
    reuses a freed heap hole when one fits, which made a process's peak
    memory turn on its allocation history by the whole scratch.
    """
    block = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if size >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):  # as NumPy's own arrays
        with suppress(OSError):
            block.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(block, dtype=bool)


class _BlockedFrontierSampler(RRSampler):
    """Shared plumbing of the vectorized samplers.

    Subclasses implement :meth:`_run_block`, which advances one block of
    pinned roots to completion and returns the block's flat results.
    Everything else — block scheduling, scratch lifetime, the
    :class:`~repro.ris.rrset.RRSample`/:class:`~repro.ris.rrset.FlatBatch`
    packaging — lives here.
    """

    # One generator feeds a whole block (module docstring, "RNG contract").
    per_set_source = False

    def __init__(self, graph: DirectedGraph, block_size: int | None = None) -> None:
        super().__init__(graph)
        if block_size is None:
            block_size = _auto_block(graph.num_nodes)
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        # One flat visited bitmap for the whole block, addressed by
        # ``set * n + node``; allocated by the first draw for the sets it
        # advances (a 20-set repair never pays for a full block) and
        # regrown only when a later draw advances more.
        self._visited: np.ndarray | None = None
        # True while a draw is in flight; a draw that raised mid-wave
        # leaves it set and the next draw hard-resets the bitmap instead
        # of trusting the (possibly partial) incremental reset.
        self._scratch_dirty = False

    def _scratch(self, num_sets: int) -> np.ndarray:
        size = num_sets * self.graph.num_nodes
        if self._visited is None or self._visited.size < size:
            self._visited = _cleared(size)
        elif self._scratch_dirty:
            self._visited[:] = False
        self._scratch_dirty = True
        return self._visited

    def _run_block(
        self, rng: np.random.Generator, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance ``roots.size <= block_size`` RR sets to completion.

        Returns ``(nodes, sizes, edges_examined)`` where ``nodes`` is the
        int32 concatenation of the block's sets (each sorted ascending)
        and ``sizes``/``edges_examined`` are per-set int64 arrays.
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, root: int | None = None) -> RRSample:
        """Draw one RR set; ``root`` can be pinned for testing."""
        if root is None:
            root = self.sample_root(rng)
        nodes, sizes, edges = self._run_block(rng, np.asarray([root], dtype=np.int64))
        return RRSample(nodes=nodes, root=int(root), edges_examined=int(edges[0]))

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` RR sets, ``block_size`` at a time."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        n = self.graph.num_nodes

        def blocks():
            for done in range(0, count, self.block_size):
                size = min(self.block_size, count - done)
                roots = rng.integers(0, n, size=size).astype(np.int64, copy=False)
                yield roots, self._run_block(rng, roots)

        return self._pack(blocks())

    def sample_batch_rooted(self, rng: np.random.Generator, roots) -> FlatBatch:
        """Draw one RR set per pinned root (the property-test entry point).

        Identical to :meth:`sample_batch` except the uniform root draws
        are replaced by the given roots; the equivalence and property
        suites use it to condition size/membership distributions on a
        root without burning samples on rejection.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if roots.ndim != 1:
            raise ValueError("roots must be a 1-D array of node ids")
        if roots.size and (int(roots.min()) < 0 or int(roots.max()) >= self.graph.num_nodes):
            raise ValueError(f"roots must lie in [0, {self.graph.num_nodes})")
        starts = range(0, roots.size, self.block_size)
        blocks = (roots[start : start + self.block_size] for start in starts)
        return self._pack((block, self._run_block(rng, block)) for block in blocks)

    @staticmethod
    def _pack(blocks) -> FlatBatch:
        """Concatenate ``(roots, _run_block result)`` pairs, drawn in order."""
        blocks = [(roots, *result) for roots, result in blocks]
        if not blocks:
            return concat_batches([])
        roots, nodes, sizes, edges = (np.concatenate(part) for part in zip(*blocks))
        offsets = np.zeros(roots.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return FlatBatch(nodes.astype(np.int32, copy=False), offsets, roots, edges)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(graph={self.graph!r}, block_size={self.block_size})"
        )


def _finish_block(
    visited: np.ndarray,
    num_sets: int,
    num_nodes: int,
    set_parts: list[np.ndarray],
    node_parts: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Sort a block's collected (set, node) pairs into per-set segments.

    Clears the touched visited-marks (the incremental scratch reset) and
    returns ``(nodes, sizes)``: the int32 concatenation with every set's
    nodes ascending, plus per-set sizes.
    """
    all_sets = np.concatenate(set_parts)
    all_nodes = np.concatenate(node_parts)
    keys = all_sets * num_nodes + all_nodes
    visited[keys] = False
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(all_sets, minlength=num_sets).astype(np.int64, copy=False)
    return all_nodes[order].astype(np.int32), sizes


def _per_set_coins(rngs: list):
    """The coin source filling set ``j``'s run of every wave from ``rngs[j]``."""

    def coins(total: int, wave_edges: np.ndarray) -> np.ndarray:
        out = np.empty(total)
        active = np.flatnonzero(wave_edges)
        stop = 0
        # The frontier is sorted by set: runs are contiguous, sets ascending.
        for j, need in zip(active.tolist(), wave_edges[active].tolist()):
            start, stop = stop, stop + need
            rngs[j].random(out=out[start:stop])
        return out

    return coins


class VectorizedICSampler(_BlockedFrontierSampler):
    """Blocked reverse-BFS frontier kernel for the IC model.

    Each wave gathers the in-edges of every (set, node) frontier pair in
    the block, draws one Bernoulli batch over all of them, and folds the
    successful sources back through the visited bitmap.  The wave
    structure and edge ordering are exactly
    :class:`~repro.ris.ic_sampler.ICReverseBFSSampler`'s; which generator
    a wave's coins come from decides bit-identity (module docstring,
    "RNG contract").
    """

    def __init__(self, graph: DirectedGraph, block_size: int | None = None) -> None:
        super().__init__(graph, block_size=block_size)
        # Per-node ``(row start, row count)`` tables over the in-edge
        # arrays: a plain CSR's are its indptr; a VersionedGraph's point
        # patched nodes at their overlay rows, appended after the base.
        indptr, indices, probs, overlay = graph.in_csr()
        starts, counts = indptr[:-1], np.diff(indptr)
        uniform = uniform_rows(indptr, probs)
        if overlay is not None:
            lookup, ov_indptr, ov_indices, ov_probs = overlay
            patched = np.flatnonzero(lookup >= 0)
            rows = lookup[patched]
            starts = starts.copy()
            starts[patched] = indices.size + ov_indptr[rows]
            counts[patched] = np.diff(ov_indptr)[rows]
            uniform[patched] = uniform_rows(ov_indptr, ov_probs)[rows]
            indices = np.concatenate((indices, ov_indices))
            probs = np.concatenate((probs, ov_probs))
        self._row_starts, self._row_counts = starts, counts
        self._indices, self._probs = indices, probs
        # Per-node uniform-probability fast path (weighted-cascade and
        # uniform graphs): when every in-edge of every node carries its
        # node's single probability, the wave's trial probabilities are a
        # frontier-sized repeat instead of an edge-index gather, and the
        # edge index itself only needs materialising at the successes.
        # The trial values and draw order are unchanged, so bit-identity
        # to the per-set path holds on both paths.
        self._node_prob: np.ndarray | None = None
        nonzero = counts > 0
        if uniform[nonzero].all():
            self._node_prob = np.zeros(graph.num_nodes, dtype=probs.dtype)
            self._node_prob[nonzero] = probs[starts[nonzero]]

    def _run_block(
        self, rng: np.random.Generator, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._advance(roots, lambda total, wave_edges: rng.random(total))

    def sample_sets(self, rngs) -> FlatBatch:
        """One RR set per generator, ``block_size`` sets per wave loop.

        The per-set coin source: set ``j`` draws its root and then every
        wave's coins from ``rngs[j]`` alone, in the order
        :class:`~repro.ris.ic_sampler.ICReverseBFSSampler` would, so the
        batch is bit-identical to one scalar draw per generator.
        """
        n = self.graph.num_nodes
        rngs = iter(rngs)

        def blocks():
            while block := list(islice(rngs, self.block_size)):
                roots = np.fromiter(
                    (rng.integers(0, n) for rng in block), dtype=np.int64, count=len(block)
                )
                yield roots, self._advance(roots, _per_set_coins(block))

        return self._pack(blocks())

    def _advance(self, roots: np.ndarray, coins) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The IC wave loop: advance one block of rooted sets to completion.

        ``coins(total, wave_edges)`` supplies a wave's ``total`` uniforms
        in frontier order — ``wave_edges[j]`` of them belong to set ``j``,
        contiguously, sets ascending.  One generator for the whole block
        (:meth:`_run_block`) or one per set (:meth:`sample_sets`): the
        loop itself does not know which.
        """
        n = self.graph.num_nodes
        row_starts, row_counts = self._row_starts, self._row_counts
        indices, probs = self._indices, self._probs
        num_sets = roots.size
        visited = self._scratch(num_sets)

        front_sets = np.arange(num_sets, dtype=np.int64)
        front_nodes = roots
        visited[front_sets * n + front_nodes] = True
        set_parts = [front_sets]
        node_parts = [front_nodes]
        edges = np.zeros(num_sets, dtype=np.int64)

        while front_nodes.size:
            starts = row_starts[front_nodes]
            counts = row_counts[front_nodes]
            ends = counts.cumsum()
            total = int(ends[-1])
            # bincount's float accumulator is exact for edge totals < 2^53.
            wave_edges = np.bincount(front_sets, weights=counts, minlength=num_sets).astype(
                np.int64
            )
            edges += wave_edges
            if total == 0:
                break
            if self._node_prob is not None:
                # Uniform-per-node probabilities: repeat them over each
                # node's edge run — same values the coins are compared
                # against, no per-edge gather, no full edge index.
                trial_probs = np.repeat(self._node_prob[front_nodes], counts)
                hit = np.flatnonzero(coins(total, wave_edges) < trial_probs)
                if hit.size == 0:
                    break
                # Edges of frontier entry j occupy
                # [ends[j]-counts[j], ends[j]), so the owning entry of a
                # hit position is one searchsorted, and its edge id is
                # the position shifted by the entry's wave offset.
                owner_idx = np.searchsorted(ends, hit, side="right")
                reached = indices[starts[owner_idx] + counts[owner_idx] - ends[owner_idx] + hit]
                owners = front_sets[owner_idx]
            else:
                # starts[j] - wave offset of node j, repeated over its
                # edges, plus a running arange == the edge id of every
                # edge in the wave (identical values to per-node slices,
                # one pass each).  Edge ids fit int32 on every graph
                # the int32-id layout admits unless the edge count itself
                # overflows; halve the bandwidth of the widest arrays
                # when they do.
                dt = np.int64 if (total >> 31) or (indices.size >> 31) else np.int32
                edge_idx = np.repeat((starts + counts - ends).astype(dt), counts) + np.arange(
                    total, dtype=dt
                )
                hit = np.flatnonzero(coins(total, wave_edges) < probs[edge_idx])
                if hit.size == 0:
                    break
                reached = indices[edge_idx[hit]]
                owners = front_sets[np.searchsorted(ends, hit, side="right")]
            cand_keys = owners * n + reached
            cand_keys = cand_keys[~visited[cand_keys]]
            if cand_keys.size == 0:
                break
            # Sorted dedup by hand: same result as np.unique with a
            # fraction of its per-call overhead (this runs every wave).
            cand_keys.sort()
            keep = np.empty(cand_keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(cand_keys[1:], cand_keys[:-1], out=keep[1:])
            new_keys = cand_keys[keep]
            visited[new_keys] = True
            front_sets = new_keys // n
            front_nodes = new_keys - front_sets * n
            set_parts.append(front_sets)
            node_parts.append(front_nodes)

        nodes, sizes = _finish_block(visited, num_sets, n, set_parts, node_parts)
        self._scratch_dirty = False
        return nodes, sizes, edges


class VectorizedLTSampler(_BlockedFrontierSampler):
    """Lockstep reverse random walks for the LT model.

    All walks of a block advance one step per iteration: in-degree
    gathers, stop/step decisions and revisit checks are single array
    operations over the still-active walks.  Each step draws two
    uniforms per active walk (stop trial + neighbor pick) where the
    scalar walk draws one or two depending on the node — the extra
    independent draw changes the consumed stream, never the
    distribution, so this path is certified by the statistical harness.
    """

    def __init__(self, graph: DirectedGraph, block_size: int | None = None) -> None:
        if block_size is None:
            # Lockstep walks advance one node per set per wave, so the
            # wave count — not cache pressure on the sparsely-touched
            # visited scratch — bounds throughput; a larger block
            # amortises the per-wave call overhead over more walks.
            block_size = 4 * _auto_block(graph.num_nodes)
        super().__init__(graph, block_size=block_size)
        sums = graph.in_probability_sums()
        if sums.size and float(sums.max()) > 1.0 + 1e-9:
            raise ValueError("LT sampler requires incoming probabilities to sum to <= 1")
        self._sums = sums
        # Global prefix sums of in-probabilities: one vectorised
        # searchsorted resolves every non-uniform walk step of a wave.
        self._prefix = np.concatenate(([0.0], np.cumsum(graph.in_probs)))
        # Weighted-cascade fast path, per node: equal in-probabilities
        # mean "stop w.p. 1 - sum, else uniform neighbor".
        self._uniform = uniform_rows(graph.in_indptr, graph.in_probs)

    def _run_block(
        self, rng: np.random.Generator, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        graph = self.graph
        n = graph.num_nodes
        indptr, indices = graph.in_indptr, graph.in_indices
        prefix, uniform, sums = self._prefix, self._uniform, self._sums
        num_sets = roots.size
        visited = self._scratch(num_sets)

        walk_sets = np.arange(num_sets, dtype=np.int64)
        current = roots.copy()
        visited[walk_sets * n + current] = True
        set_parts = [walk_sets]
        node_parts = [roots]
        edges = np.zeros(num_sets, dtype=np.int64)

        while current.size:
            starts = indptr[current]
            degrees = indptr[current + 1] - starts
            # One walk per set: no duplicate indices, plain fancy add.
            edges[walk_sets] += degrees
            alive = degrees > 0
            if not alive.any():
                break
            walk_sets, current = walk_sets[alive], current[alive]
            starts, degrees = starts[alive], degrees[alive]

            stop_draw = rng.random(current.size)
            pick_draw = rng.random(current.size)
            is_uniform = uniform[current]
            totals = sums[current]
            # Uniform nodes: stop when the stop trial exceeds the
            # incoming mass, else pick a neighbor uniformly.
            survive = ~is_uniform | (totals >= 1.0) | (stop_draw < totals)
            edge = starts + (pick_draw * degrees).astype(np.int64)
            # Non-uniform nodes: one threshold draw into the global
            # prefix; a draw beyond the node's incoming mass means stop.
            nonuni = ~is_uniform
            if nonuni.any():
                thresholds = prefix[starts[nonuni]] + pick_draw[nonuni]
                found = np.searchsorted(prefix, thresholds, side="left") - 1
                edge[nonuni] = found
                in_range = (found >= starts[nonuni]) & (found < starts[nonuni] + degrees[nonuni])
                survive_nonuni = survive[nonuni] & in_range
                survive = survive.copy()
                survive[nonuni] = survive_nonuni
            if not survive.any():
                break
            walk_sets, edge = walk_sets[survive], edge[survive]
            nxt = indices[edge].astype(np.int64)
            keys = walk_sets * n + nxt
            fresh = ~visited[keys]
            if not fresh.any():
                break
            walk_sets, nxt, keys = walk_sets[fresh], nxt[fresh], keys[fresh]
            visited[keys] = True
            set_parts.append(walk_sets)
            node_parts.append(nxt)
            current = nxt

        nodes, sizes = _finish_block(visited, num_sets, n, set_parts, node_parts)
        self._scratch_dirty = False
        return nodes, sizes, edges


class VectorizedTriggeringSampler(_BlockedFrontierSampler):
    """Blocked frontier kernel for the triggering model.

    Dispatches on the distribution: :class:`ICTriggering` runs the IC
    Bernoulli wave kernel, :class:`LTTriggering` the categorical walk
    kernel (an LT triggering set has at most one in-neighbor, so the
    reverse BFS degenerates to the reverse walk — the distributions
    coincide, as the per-set samplers' tests already establish).
    Arbitrary distributions have no batched trial form and must use
    :class:`~repro.ris.triggering_sampler.TriggeringRRSampler`.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        distribution: TriggeringDistribution,
        block_size: int | None = None,
    ) -> None:
        super().__init__(graph, block_size=block_size)
        self.distribution = distribution
        if isinstance(distribution, ICTriggering):
            self._kernel = VectorizedICSampler(graph, block_size=block_size)
        elif isinstance(distribution, LTTriggering):
            self._kernel = VectorizedLTSampler(graph, block_size=block_size)
        else:
            raise ValueError(
                "vectorized triggering supports ICTriggering and LTTriggering "
                f"distributions only, got {type(distribution).__name__}; use "
                "TriggeringRRSampler for arbitrary distributions"
            )
        # The kernel owns the scratch; keep the outer blocking in step
        # with whatever block size it auto-selected.
        self.block_size = self._kernel.block_size

    def _run_block(
        self, rng: np.random.Generator, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._kernel._run_block(rng, roots)

    def __repr__(self) -> str:
        return (
            f"VectorizedTriggeringSampler(graph={self.graph!r}, "
            f"distribution={type(self.distribution).__name__}, "
            f"block_size={self.block_size})"
        )
