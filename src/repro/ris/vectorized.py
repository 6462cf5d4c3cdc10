"""Batched frontier kernels: hundreds of RR sets per NumPy call.

The per-set samplers (:mod:`repro.ris.ic_sampler`, :mod:`~repro.ris.lt_sampler`,
:mod:`~repro.ris.triggering_sampler`) vectorise *within* one RR set — one
coin-flip batch per frontier — but still pay Python-level bookkeeping per
set and per wave.  On the scaled datasets an RR set averages only a few
waves of a few nodes each, so that bookkeeping, not the arithmetic,
dominates generation time (the cost every phase plan is built around).

This module ports gIM's batched frontier expansion to the CSR arrays:
a *block* of RR sets advances together, one wave per step, with

* one masked gather over the per-node in-row tables building the
  in-edge index of the whole block's frontier at once,
* one vectorised batch of keyed coins (IC) or one keyed stop/pick pair
  per walking set (LT) for every trial of the wave,
* visited-marks kept in a single flat block-scratch bitmap addressed by
  ``set * n + node`` keys, so per-set dedup is one sort over integer keys.

The amortised Python overhead per set drops by roughly the block size.
These kernels are what ``make_sampler`` returns, and the only samplers
:func:`~repro.ris.rrset.sample_set_range` draws with.  The triggering
model's IC and LT distributions are these two kernels; an arbitrary
triggering distribution has no batched trial form and stays with the scalar
:class:`~repro.ris.triggering_sampler.TriggeringRRSampler`.

RNG contract
------------
Every choice is a hash of coordinates; no generator feeds the draw.  Each
RR set has a 64-bit *set key* ``K`` — from
:func:`~repro.ris.rrset.set_keys` (a hash of ``(seed, collection key,
machine, set index)``) under :func:`~repro.ris.rrset.sample_set_range`,
or the next 64-bit word of ``rng`` under :meth:`~_BlockedFrontierSampler.sample`
and :meth:`~_BlockedFrontierSampler.sample_batch` — and

* its root is the multiply-high of ``K`` by ``n`` (no modulo bias), or,
  given a root set ``T`` (targeted IM), ``T[mulhi(K, |T|)]``;
* node ``v``'s *row key* is ``_mix(K + v * GOLDEN)``;
* IC: the in-edge of rank ``r`` in ``v``'s in-row is live iff the top 63
  bits of ``_mix(row key + r)`` fall below ``ceil(p * 2**63)``, a pure
  function of ``p`` (:func:`_thresholds`: ``p >= 1`` always live,
  ``p <= 0`` never).  A node enters a set's frontier at most once, so
  ``(set, v, r)`` names each coin once;
* LT: a walk at ``v`` goes on iff the row key's high word is below
  ``ceil(mass * 2**32)``, and picks the in-edge its low word selects
  (uniform rows: the word's multiply-high by the degree; others: the
  word as a uniform against the row's running sums).  A walk visits
  ``v`` at most once.

So a set's bytes are a pure function of its key and the graph's
in-rows: independent of the block width, of which other sets share its
block, and of where a row is stored — coins are keyed by an edge's
*rank* in its row, never its storage offset.  Pools serve prefixes
without moving a byte.  ``sample_batch(rng, count) ==
pack_samples(sample_many(count, rng))``: set ``j`` is keyed by the
``j``-th 64-bit word of ``rng`` either way.

A set is thus the reverse reach of its root in a live-edge world that is
a function of its key, and a row's *outcome* in that world — the live
sources of ``(K, v)`` (IC), or the source the walk at ``(K, v)`` picks,
or its stop (LT) — can be replayed alone.  ``row_outcomes`` does that
with the wave's own draw code (:meth:`VectorizedICSampler._live_edges`,
:meth:`VectorizedLTSampler._picks`), and ``rows_changed`` compares a
row's outcome on the sampler of a graph before an update with this one.
A :class:`~repro.graphs.digraph.VersionedGraph` update keeps every
surviving in-edge at its rank (its row-order invariant), so a set whose
touched rows all keep their outcomes comes back byte-identical: a
repair redraws only the others and keeps the rest
(:meth:`~repro.core.pool.SamplePool.repair`).  The IC kernel of the
updated graph takes the row flags of the one before, recomputed on the
touched rows only (:meth:`VectorizedICSampler.rebased`), and leaves the
one before intact for the replay.

``_mix`` is two multiplies around one xorshift; the chi-square gates in
``tests/ris/test_coordinates.py`` hold it (and the set keys) to
uniformity within a row, across two nodes of one set, across
consecutive set ids and across LT's stop and pick draws.

Scratch memory is one byte per visited-mark, in a mapping of its own
(:func:`repro.graphs.digraph._mapped`) a full block long but backed only
where draws touched it: at most ``num_nodes`` per set of the largest
block drawn so far.  When ``block_size`` is not given, each sampler
picks one from the graph size (:data:`DEFAULT_BLOCK` /
:data:`DEFAULT_SCRATCH_BYTES`); pass an explicit value to trade memory
against per-wave overhead on unusual graphs.
"""

from __future__ import annotations

import numpy as np

from ..graphs.digraph import DirectedGraph, _huge_pages, _mapped
from .flat import gather_rows
from .rrset import (
    GOLDEN,
    FlatBatch,
    RRSample,
    RRSampler,
    concat_batches,
    uniform_rows,
)

__all__ = [
    "DEFAULT_BLOCK",
    "VectorizedICSampler",
    "VectorizedLTSampler",
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


#: Entries per 2-D gather when the LT sampler builds its rows' running
#: sums (bounds the construction's temporaries).
_RUNNING_SUM_CHUNK = 1 << 20


def _auto_block(num_nodes: int) -> int:
    return max(64, min(DEFAULT_BLOCK, DEFAULT_SCRATCH_BYTES // max(num_nodes, 1)))


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)


def _mulhi(keys: np.ndarray, bound) -> np.ndarray:
    """``floor(keys * bound / 2**64)`` as ``int64``: uniform in ``[0, bound)``.

    Exact for ``bound < 2**32`` (node ids and degrees are ``int32``):
    with ``keys = a * 2**32 + b`` the product's high word is
    ``(a * bound + (b * bound >> 32)) >> 32``, and no partial overflows.
    """
    bound = np.asarray(bound).astype(_U64)
    high = (keys >> _U64(32)) * bound
    high += ((keys & _LOW32) * bound) >> _U64(32)
    return (high >> _U64(32)).astype(np.int64)


# The hash constants as 0-d arrays: a NumPy scalar operand costs more per
# call than the small frontier arrays' arithmetic.
#: The coin hash's two multipliers (splitmix64's), and their product.
_MIX1 = np.array(0xBF58476D1CE4E5B9, dtype=_U64)
_MIX2 = np.array(0x94D049BB133111EB, dtype=_U64)
_MIX21 = np.array(0x94D049BB133111EB * 0xBF58476D1CE4E5B9 % 2**64, dtype=_U64)
_GOLDEN = np.array(GOLDEN, dtype=_U64)
_SHIFT32 = np.array(32, dtype=_U64)
_ONE = np.array(1, dtype=_U64)


def _mix(values: np.ndarray) -> np.ndarray:
    """Two multiplies around one xorshift, in place (returned).

    Cheap, and uniform enough on its two inputs here — a set key plus a
    node's multiple of ``GOLDEN``, a row key plus a rank — by the
    chi-square gates in ``tests/ris/test_coordinates.py``.  The IC wave
    applies it with the first multiply distributed over ``row key + rank``
    (:meth:`VectorizedICSampler._run_block`).
    """
    values *= _MIX1
    return _mix_tail(values)


def _mix_tail(values: np.ndarray) -> np.ndarray:
    """:func:`_mix` after its first multiply, in place (returned)."""
    values ^= values >> _SHIFT32
    values *= _MIX2
    return values


def _row_keys(set_keys: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Node ``v``'s row key in each set: ``_mix(K + v * GOLDEN)``."""
    keys = nodes.view(_U64) * _GOLDEN
    keys += set_keys
    return _mix(keys)


def _thresholds(probs: np.ndarray) -> np.ndarray:
    """``ceil(p * 2**63)`` per probability: a 63-bit coin ``c`` is live iff
    ``c < threshold``, i.e. ``c / 2**63 < p`` exactly.

    ``p`` is clipped to ``[0, 1]`` first, so ``p >= 1`` gives ``2**63``
    (always live, and still a ``uint64``) and ``p <= 0`` gives 0.
    """
    return np.ceil(np.clip(probs, 0.0, 1.0) * 2.0**63).astype(_U64)


def _row_tables(graph: DirectedGraph, uniform: np.ndarray | None = None):
    """Per-node in-row tables over the in-edge arrays.

    Returns ``(starts, counts, indices, probs, uniform)``: node ``v``'s
    in-row is ``indices[starts[v] : starts[v] + counts[v]]``, and
    ``uniform[v]`` is whether the row is non-empty with one probability —
    what decides, row by row, whether the IC kernel keeps one threshold
    for the row or one per in-edge (:class:`VectorizedICSampler`), and
    whether an LT walk picks by degree or by running sums.  A ``uniform``
    passed in is taken as is (:meth:`VectorizedICSampler.rebased` patches
    the flags of the graph before an update).
    """
    indptr, indices, probs = graph.in_indptr, graph.in_indices, graph.in_probs
    # int64 whatever the CSR's dtype: the waves view offsets as uint64.
    starts = indptr[:-1].astype(np.int64, copy=False)
    counts = np.diff(indptr).astype(np.int64, copy=False)
    if uniform is None:
        uniform = uniform_rows(indptr, probs)
    return starts, counts, indices, probs, uniform


class _BlockedFrontierSampler(RRSampler):
    """Shared plumbing of the vectorized samplers.

    Subclasses implement :meth:`_run_block`, which advances one block of
    keyed, rooted sets to completion and returns the block's flat
    results.  Everything else — where keys come from, block scheduling,
    scratch lifetime, the :class:`~repro.ris.rrset.RRSample` /
    :class:`~repro.ris.rrset.FlatBatch` packaging — lives here.
    """

    def __init__(self, graph: DirectedGraph, block_size: int | None = None) -> None:
        super().__init__(graph)
        if block_size is None:
            block_size = _auto_block(graph.num_nodes)
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        # One flat visited bitmap for the whole block, addressed by
        # ``set * n + node``: a view, as long as the largest draw so far,
        # of one mapping a full block long.  Only touched pages are ever
        # backed, so a 20-set repair never pays for a full block, and a
        # larger draw later widens the view without re-faulting the pages
        # the earlier draws touched.
        self._marks: np.ndarray | None = None
        self._visited: np.ndarray | None = None
        # True while a draw is in flight; a draw that raised mid-wave
        # leaves it set and the next draw takes a fresh mapping instead
        # of trusting the (possibly partial) incremental reset.
        self._scratch_dirty = False

    def _scratch(self, num_sets: int) -> np.ndarray:
        n = self.graph.num_nodes
        size = num_sets * n
        if self._marks is None or self._marks.size < size or self._scratch_dirty:
            self._marks = _mapped(max(num_sets, self.block_size) * n, bool)
            self._visited = None
        if self._visited is None or self._visited.size < size:
            _huge_pages(self._marks, size)
            self._visited = self._marks[:size]
        self._scratch_dirty = True
        return self._visited

    def _run_block(
        self, keys: np.ndarray, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance ``roots.size <= block_size`` keyed RR sets to completion.

        Returns ``(nodes, sizes, edges_examined)`` where ``nodes`` is the
        int32 concatenation of the block's sets (each sorted ascending)
        and ``sizes``/``edges_examined`` are per-set int64 arrays.
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, root: int | None = None) -> RRSample:
        """Draw one RR set keyed by ``rng``'s next 64-bit word; ``root``
        can be pinned (the key still draws the coins)."""
        keys = rng.bit_generator.random_raw(1)
        roots = _mulhi(keys, self.graph.num_nodes) if root is None else np.asarray([root])
        nodes, sizes, edges = self._run_block(keys, roots.astype(np.int64))
        return RRSample(nodes=nodes, root=int(roots[0]), edges_examined=int(edges[0]))

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` RR sets keyed by ``rng``'s next ``count`` words."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self.sample_keys(rng.bit_generator.random_raw(count))

    def sample_keys(self, keys, roots=None) -> FlatBatch:
        """Draw one RR set per 64-bit set key, ``block_size`` at a time.

        What :func:`~repro.ris.rrset.sample_set_range` calls; set ``j``'s
        bytes depend on ``keys[j]``, ``roots`` and the graph alone.  Its
        root is ``roots[mulhi(K, |roots|)]`` for the sorted, unique node ids
        ``roots``, and ``mulhi(K, n)`` — the same over all nodes — when
        ``roots`` is ``None``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if roots is None:
            return self._draw(keys, _mulhi(keys, self.graph.num_nodes))
        roots = np.asarray(roots, dtype=np.int64)
        return self._draw(keys, roots[_mulhi(keys, roots.size)])

    def sample_batch_rooted(self, rng: np.random.Generator, roots) -> FlatBatch:
        """Draw one RR set per pinned root (the property-test entry point).

        Identical to :meth:`sample_batch` except the roots the keys would
        pick are replaced by the given ones; the equivalence and property
        suites use it to condition size/membership distributions on a
        root without burning samples on rejection.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if roots.ndim != 1:
            raise ValueError("roots must be a 1-D array of node ids")
        if roots.size and (int(roots.min()) < 0 or int(roots.max()) >= self.graph.num_nodes):
            raise ValueError(f"roots must lie in [0, {self.graph.num_nodes})")
        return self._draw(rng.bit_generator.random_raw(roots.size), roots)

    def row_outcomes(self, set_keys, nodes) -> np.ndarray:
        """The outcome of each row ``(set_keys[j], nodes[j])``, replayed
        from the kernel's own draw code: the ascending codes ``j * n +
        source`` of the in-edges the row takes."""
        raise NotImplementedError

    def rows_changed(self, before, set_keys, nodes) -> np.ndarray:
        """Which rows ``(set_keys[j], nodes[j])`` draw differently here than
        under ``before``: each row is replayed on both, and it changed iff
        its outcome differs.  ``before`` must be the same kernel over the
        graph before an update with as many nodes.  Only the samplers' own
        tables are read, never ``self.graph``, so a sampler of a graph that
        has since moved on (:class:`~repro.graphs.digraph.VersionedGraph`)
        still replays it.
        """
        n = self._row_counts.size
        changed = np.zeros(np.shape(nodes)[0], dtype=bool)
        old, new = before.row_outcomes(set_keys, nodes), self.row_outcomes(set_keys, nodes)
        changed[np.setxor1d(old, new, assume_unique=True) // n] = True
        return changed

    def rebased(self, graph: DirectedGraph, touched) -> "_BlockedFrontierSampler | None":
        """This kernel over ``graph``, an update of its graph whose changed
        in-rows are ``touched``, derived from this one's tables; ``None``
        means build afresh, which is all this base answers.  Whatever it
        returns leaves this kernel intact: a repair still replays rows on
        it (:meth:`rows_changed`).
        """
        return None

    def _draw(self, keys: np.ndarray, roots: np.ndarray) -> FlatBatch:
        """Run ``(keys, roots)`` a block at a time into one flat batch."""
        size = self.block_size
        blocks = [
            (roots[at : at + size], *self._run_block(keys[at : at + size], roots[at : at + size]))
            for at in range(0, keys.size, size)
        ]
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
    row_counts: np.ndarray,
    set_parts: list[np.ndarray],
    node_parts: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort a block's collected (set, node) pairs into per-set segments.

    ``row_counts`` is the per-node in-degree table (one entry per node).

    Clears the touched visited-marks (the incremental scratch reset) and
    returns ``(nodes, sizes, edges_examined)``: the int32 concatenation
    with every set's nodes ascending, per-set sizes, and per-set in-edge
    counts — both kernels examine every in-edge of every collected node
    exactly once, so ``w(R)`` is the sum of their in-degrees.
    """
    n = row_counts.size
    all_sets = np.concatenate(set_parts)
    all_nodes = np.concatenate(node_parts)
    keys = all_sets * n + all_nodes
    visited[keys] = False
    sizes = np.bincount(all_sets, minlength=num_sets).astype(np.int64, copy=False)
    # bincount's float accumulator is exact for edge totals < 2^53.
    edges = np.bincount(all_sets, weights=row_counts[all_nodes], minlength=num_sets)
    # Sorted keys are (set, node) order: each set's nodes ascending.
    keys.sort()
    keys %= n
    return keys.astype(np.int32), sizes, edges.astype(np.int64)


class VectorizedICSampler(_BlockedFrontierSampler):
    """Blocked reverse-BFS frontier kernel for the IC model.

    Each wave gathers the in-edges of every (set, node) frontier pair in
    the block, hashes one keyed coin per edge, and folds the live
    edges' sources back through the visited bitmap (module docstring,
    "RNG contract").

    A coin is live iff it falls below its edge's threshold, a function of
    ``p`` alone, kept per row: a row whose in-edges share one probability
    (every row of a weighted-cascade or uniform graph) keeps one
    threshold per node, and the wave repeats it over the row instead of
    gathering per edge; the other, *tabled* rows keep one threshold per
    in-edge, row after row in ``_edge_threshold`` (bounds ``_edge_ptr``),
    and the wave overwrites their stretch of its repeat with a gather.
    Once the tabled rows hold most of the in-edges every non-empty row is
    tabled, so the table lines up with the in-edge arrays and the wave
    gathers by edge id alone.  Either way every coin meets the threshold
    of its own ``p``: the layout moves no byte.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        block_size: int | None = None,
        uniform: np.ndarray | None = None,
    ) -> None:
        super().__init__(graph, block_size=block_size)
        starts, counts, indices, probs, uniform = _row_tables(graph, uniform)
        self._row_starts, self._row_counts, self._indices = starts, counts, indices
        self._uniform = uniform
        self._set_thresholds(graph.in_indptr, probs)
        # v * GOLDEN per node: the row key's hash input is K + salt[v].
        self._salt = np.arange(graph.num_nodes, dtype=np.uint64)
        self._salt *= _GOLDEN
        # r * _MIX1 for the wave positions r = 0, 1, 2, ...: the coin
        # hash's first multiply, distributed over row key + rank; grown on
        # demand.
        self._steps = np.arange(0, dtype=np.uint64)

    def _set_thresholds(self, indptr: np.ndarray, probs: np.ndarray) -> None:
        """Lay the thresholds out over the row tables (class docstring)."""
        counts, uniform = self._row_counts, self._uniform
        nonempty = counts > 0
        tabled = nonempty & ~uniform
        # Past half the in-edges every row is tabled, and the wave gathers
        # per edge.  Measured (facebook stand-in, 2-core x86 box; rows
        # pushed off weighted cascade until tabled rows held 10-90% of the
        # in-edges), the mixed wave against the per-edge one at 10 / 30 /
        # 45 / 55 / 70 / 90%: 0.70x / 0.86x / 0.90x / 0.99x / 1.08x / 1.19x
        # for a 2,000-set draw, crossing near 30% for 64 sets; a 2-set
        # draw is ~10% slower on the mixed wave at every share.
        every = 2 * int(counts[tabled].sum()) > int(counts.sum())
        if every:
            tabled = nonempty
        self._node_threshold = self._edge_threshold = self._edge_ptr = self._tabled = None
        if not every:
            # One probability per untabled row; 0 for tabled and empty rows.
            single = uniform & ~tabled
            node_prob = np.zeros(counts.size, dtype=np.float64)
            node_prob[single] = probs[self._row_starts[single]]
            self._node_threshold = _thresholds(node_prob)
            if not tabled.any():
                return
            self._tabled = tabled
        self._edge_ptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts * tabled, out=self._edge_ptr[1:])
        tabled_probs = probs if every else gather_rows(probs, indptr, np.flatnonzero(tabled))
        self._edge_threshold = _thresholds(tabled_probs)

    def rebased(self, graph: DirectedGraph, touched) -> "VectorizedICSampler | None":
        """This kernel over ``graph``, which differs from the graph it was
        built on only in the in-rows ``touched`` (what
        :meth:`VersionedGraph.apply <repro.graphs.digraph.VersionedGraph.apply>`
        returned): ``make_sampler(graph)``, without its pass over every
        in-edge.  The row flags are copied and recomputed on the touched
        rows only; the rest is built from them as a fresh kernel's is.

        This kernel is not written — a repair still replays rows on it
        (:meth:`rows_changed`).  Returns ``None`` (build afresh) when
        ``touched`` is ``None`` or the node count moved.
        """
        if touched is None or graph.num_nodes != self._uniform.size:
            return None
        rows = np.asarray(touched, dtype=np.int64)
        indptr = graph.in_indptr
        bounds = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(indptr[rows + 1] - indptr[rows], out=bounds[1:])
        uniform = self._uniform.copy()
        uniform[rows] = uniform_rows(bounds, gather_rows(graph.in_probs, indptr, rows))
        return type(self)(graph, block_size=self.block_size, uniform=uniform)

    def _wave_steps(self, total: int) -> np.ndarray:
        if self._steps.size < total:
            self._steps = np.arange(max(total, 2 * self._steps.size), dtype=np.uint64)
            self._steps *= _MIX1
        return self._steps[:total]

    def _live_edges(
        self, set_keys: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The live in-edges of the rows ``(set_keys[j], nodes[j])``.

        Returns ``(row, source)`` per live edge: ``row`` indexes the
        pairs (ascending), and each row's sources come in rank order.  The
        one place the IC coins are drawn — a wave of :meth:`_run_block`
        and a replay (:meth:`row_outcomes`) alike.
        """
        # The ndarray methods (``.repeat``, ``.nonzero()``,
        # ``.searchsorted``) rather than their ``np.*`` wrappers: on
        # frontier-sized arrays the wrappers' dispatch costs a microsecond
        # or more per call, and a small block's draw is mostly calls.
        indices = self._indices
        starts = self._row_starts[nodes]
        counts = self._row_counts[nodes]
        ends = np.add.accumulate(counts)
        total = int(ends[-1]) if len(ends) else 0
        if total == 0:
            return np.zeros(0, dtype=np.int64), indices[:0]
        # Edges of row j occupy wave positions [ends[j]-counts[j],
        # ends[j]).  Each coin is _mix(row key + rank) with the first
        # multiply distributed: row key * _MIX1 (folded into _row_keys'
        # last multiply), less the row's offset * _MIX1, plus position *
        # _MIX1.
        offsets = ends - counts
        steps = self._wave_steps(total + 1)  # an empty last row's offset is total
        row_keys = set_keys + self._salt[nodes]
        row_keys *= _MIX1
        row_keys ^= row_keys >> _SHIFT32
        row_keys *= _MIX21
        row_keys -= steps[offsets]
        coins = row_keys.repeat(counts)
        coins += steps[:total]
        coins = _mix_tail(coins)
        coins >>= _ONE  # 63-bit coins (_thresholds)
        # Edge id of a wave position: its row's start, shifted back by the
        # row's wave offset, plus the position.
        base = starts - offsets
        node_threshold = self._node_threshold
        if node_threshold is not None:
            thresholds = node_threshold[nodes].repeat(counts)
            if self._tabled is not None:
                self._table_thresholds(thresholds, nodes, counts, offsets)
            hit = (coins < thresholds).nonzero()[0]
            if hit.size == 0:
                return hit, indices[:0]
            # The owning row of a live position is one searchsorted.
            row = ends.searchsorted(hit, "right")
            return row, indices[base[row] + hit]
        # Every row is tabled, so the table lines up with the in-edges:
        # gather it by every edge id of the wave.  Edge ids fit int32 on
        # every graph the int32-id layout admits unless the edge count
        # itself overflows; halve the bandwidth of the widest arrays when
        # they do.
        dt = np.int64 if (total >> 31) or (indices.size >> 31) else np.int32
        edge_idx = base.astype(dt).repeat(counts)
        edge_idx += np.arange(total, dtype=dt)
        hit = (coins < self._edge_threshold[edge_idx]).nonzero()[0]
        return ends.searchsorted(hit, "right"), indices[edge_idx[hit]]

    def _table_thresholds(
        self, thresholds: np.ndarray, nodes: np.ndarray, counts: np.ndarray, offsets: np.ndarray
    ) -> None:
        """Overwrite the tabled rows' stretches of a wave's repeated node
        thresholds with their per-edge ones (``counts`` / ``offsets``: each
        row's length and wave position)."""
        row = self._tabled[nodes].nonzero()[0]
        if row.size == 0:
            return
        counts, offsets = counts[row], offsets[row]
        ends = np.add.accumulate(counts)
        at = (offsets - ends + counts).repeat(counts)
        at += np.arange(int(ends[-1]))
        table_at = (self._edge_ptr[nodes[row]] - offsets).repeat(counts)
        table_at += at
        thresholds[at] = self._edge_threshold[table_at]

    def row_outcomes(self, set_keys, nodes) -> np.ndarray:
        """The row ``(set_keys[j], nodes[j])``'s outcome, for every ``j``:
        its live sources, as the ascending codes ``j * n + source``."""
        row, sources = self._live_edges(
            np.asarray(set_keys, dtype=_U64), np.asarray(nodes, dtype=np.int64)
        )
        return np.unique(row * self._row_counts.size + sources)

    def _run_block(
        self, keys: np.ndarray, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.graph.num_nodes
        num_sets = roots.size
        visited = self._scratch(num_sets)

        stride = np.array(n, dtype=np.int64)  # 0-d, as the hash constants
        front_sets = np.arange(num_sets, dtype=np.int64)
        front_nodes = roots
        visited[front_sets * n + front_nodes] = True
        set_parts = [front_sets]
        node_parts = [front_nodes]

        while front_nodes.size:
            owner_idx, reached = self._live_edges(keys[front_sets], front_nodes)
            if reached.size == 0:
                break
            owners = front_sets[owner_idx]
            new_keys = owners * stride
            new_keys += reached
            # Keep each key's first copy, when unvisited: a sorted dedup by
            # hand, with a fraction of np.unique's per-call overhead (this
            # runs every wave).
            new_keys.sort()
            keep = np.empty(new_keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(new_keys[1:], new_keys[:-1], out=keep[1:])
            new_keys = new_keys[np.greater(keep, visited[new_keys], out=keep)]
            if new_keys.size == 0:
                break
            visited[new_keys] = True
            front_sets, front_nodes = np.divmod(new_keys, stride)
            set_parts.append(front_sets)
            node_parts.append(front_nodes)

        result = _finish_block(visited, num_sets, self._row_counts, set_parts, node_parts)
        self._scratch_dirty = False
        return result


class VectorizedLTSampler(_BlockedFrontierSampler):
    """Lockstep reverse random walks for the LT model.

    All walks of a block advance one step per iteration: in-row gathers,
    keyed stop/pick decisions and revisit checks are single array
    operations over the still-active walks (module docstring, "RNG
    contract").
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
        starts, counts, indices, probs, uniform = _row_tables(graph)
        self._row_starts, self._row_counts, self._indices = starts, counts, indices
        self._uniform = uniform
        # Uniform (weighted-cascade) rows: "stop w.p. 1 - mass, else a
        # uniform neighbour", the mass being the row's probability times
        # its degree, at 32-bit resolution: a walk goes on iff its stop
        # draw is below ``ceil(mass * 2**32)``.  Other rows never stop at
        # the stop draw (2**32 passes every draw): their pick decides.
        mass = np.ones(graph.num_nodes, dtype=np.float64)
        mass[uniform] = probs[starts[uniform]] * counts[uniform]
        self._stop_threshold = np.ceil(np.clip(mass, 0.0, 1.0) * 2.0**32).astype(_U64)
        self._may_stop = bool((self._stop_threshold < _U64(1 << 32)).any())
        # Non-uniform rows: each row's own running sum of probabilities,
        # accumulated along the row (``cumsum`` along an axis adds in
        # order) — the same bits whatever the row's storage offset, unlike
        # a prefix sum over the whole array.  Rows of one length share a
        # 2-D gather of at most ~_RUNNING_SUM_CHUNK entries, so the work is
        # linear in the rows' entries and the temporaries stay small.
        self._cumulative: np.ndarray | None = None
        rows = np.flatnonzero(~uniform & (counts > 0))
        if rows.size:
            rows = rows[np.argsort(counts[rows], kind="stable")]
            cumulative = probs.astype(np.float64, copy=True)
            for group in np.split(rows, np.flatnonzero(np.diff(counts[rows])) + 1):
                degree = int(counts[group[0]])
                step = max(1, _RUNNING_SUM_CHUNK // degree)
                for first in range(0, group.size, step):
                    at = starts[group[first : first + step], None] + np.arange(degree)
                    cumulative[at] = cumulative[at].cumsum(axis=1)
            self._cumulative = cumulative

    def _picks(self, set_keys: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the walks at the rows ``(set_keys[j], nodes[j])`` go.

        Returns ``(row, source)`` per walk that goes on (``row``
        ascending); a walk at an empty row, or whose stop draw says so,
        stops.  The one place the LT draws are made — a step of
        :meth:`_run_block` and a replay (:meth:`row_outcomes`) alike.
        """
        degrees = self._row_counts[nodes]
        row = degrees.nonzero()[0]
        if row.size == 0:
            return row, self._indices[:0]
        nodes, degrees = nodes[row], degrees[row]
        starts = self._row_starts[nodes]

        # One row key per step: its high word is the stop draw, its low
        # word the pick draw.
        draws = _row_keys(set_keys[row], nodes)
        if self._may_stop:
            survive = (draws >> _SHIFT32) < self._stop_threshold[nodes]
        else:
            survive = np.ones(nodes.size, dtype=bool)
        draws &= _LOW32
        picks = draws * degrees.astype(_U64)
        picks >>= _SHIFT32
        edge = starts + picks.astype(np.int64)
        nonuni = () if self._cumulative is None else (~self._uniform[nodes]).nonzero()[0]
        if len(nonuni):
            # The pick draw as a uniform in [0, 1), against each row's
            # running sums: the edge is the number of running sums at or
            # below it; a draw beyond the row's mass means stop.
            row_starts_nu, degrees_nu = starts[nonuni], degrees[nonuni]
            ends = degrees_nu.cumsum()
            at = (row_starts_nu - (ends - degrees_nu)).repeat(degrees_nu)
            at += np.arange(int(ends[-1]))
            below = self._cumulative[at] <= (draws[nonuni] * 2.0**-32).repeat(degrees_nu)
            taken = np.add.reduceat(below, ends - degrees_nu, dtype=np.int64)
            edge[nonuni] = row_starts_nu + taken
            survive[nonuni] = taken < degrees_nu
        # One index list for both gathers: a boolean-mask gather costs
        # several times an index take.
        going = survive.nonzero()[0]
        return row[going], self._indices[edge[going]]

    def row_outcomes(self, set_keys, nodes) -> np.ndarray:
        """The row ``(set_keys[j], nodes[j])``'s outcome, for every ``j``:
        the source its walk picks, as the ascending codes ``j * n +
        source`` (none where the walk stops)."""
        row, sources = self._picks(
            np.asarray(set_keys, dtype=_U64), np.asarray(nodes, dtype=np.int64)
        )
        return row * self._row_counts.size + sources

    def _run_block(
        self, keys: np.ndarray, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.graph.num_nodes
        num_sets = roots.size
        visited = self._scratch(num_sets)

        walk_sets = np.arange(num_sets, dtype=np.int64)
        current = roots.copy()
        visited[walk_sets * n + current] = True
        set_parts = [walk_sets]
        node_parts = [roots]

        while current.size:
            row, nxt = self._picks(keys[walk_sets], current)
            if nxt.size == 0:
                break
            walk_sets, nxt = walk_sets[row], nxt.astype(np.int64)
            marks = walk_sets * n + nxt
            fresh = (~visited[marks]).nonzero()[0]
            if fresh.size == 0:
                break
            walk_sets, nxt, marks = walk_sets[fresh], nxt[fresh], marks[fresh]
            visited[marks] = True
            set_parts.append(walk_sets)
            node_parts.append(nxt)
            current = nxt

        result = _finish_block(visited, num_sets, self._row_counts, set_parts, node_parts)
        self._scratch_dirty = False
        return result
