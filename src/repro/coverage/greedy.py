"""Centralized greedy maximum coverage with the paper's lazy bucket scan.

Algorithm 1's master-side engine: a vector ``D`` where ``D(d)`` lists the
sets whose *recorded* marginal coverage is ``d``.  The scan walks ``d``
downward; a set found with an outdated record is lazily re-filed into the
bucket of its current marginal (lines 9-11 of Algorithm 1).  Because
marginals only shrink under submodularity, a single downward pass with
re-filing suffices for all ``k`` selections.

Buckets are kept as min-heaps of set ids, which pins the tie-breaking rule
to *lowest id among the largest marginals*.  That determinism is what lets
tests assert the exact Lemma 2 equivalence between this engine, the naive
re-scan oracle below, and the distributed NEWGREEDI.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from .kernel import as_flat, mark_and_decrement, resolve_backend

__all__ = ["BucketQueue", "GreedyResult", "greedy_max_coverage", "naive_greedy_max_coverage"]


class BucketQueue:
    """The vector ``D`` of Algorithm 1 with lazy re-filing.

    Parameters
    ----------
    counts:
        Live marginal-coverage array, *shared with the caller*: the queue
        reads ``counts[u]`` at pop time to detect outdated records.  The
        caller decrements it as elements become covered.
    candidates:
        Optional subset of set ids eligible for selection (used by GREEDI's
        per-partition runs); defaults to every id.
    """

    def __init__(self, counts: np.ndarray, candidates: Sequence[int] | None = None) -> None:
        self._counts = counts
        if candidates is None:
            ids = np.flatnonzero(counts > 0)
        else:
            ids = np.asarray(candidates, dtype=np.int64)
            ids = ids[counts[ids] > 0]
        marginals = counts[ids]
        # Sorted by (marginal, id) every bucket is one slice, and an
        # ascending list already satisfies the heap invariant.
        order = np.lexsort((ids, marginals))
        marginals = marginals[order]
        ids = ids[order].tolist()
        cuts = [0, *(np.flatnonzero(np.diff(marginals)) + 1).tolist(), len(ids)]
        self._buckets: Dict[int, List[int]] = {
            int(marginals[lo]): ids[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi
        }
        self._cursor = int(marginals[-1]) if ids else 0

    def pop_max(self) -> int | None:
        """Return the lowest-id set with the largest current marginal.

        Returns ``None`` when every remaining marginal is zero.  The popped
        set is removed; the caller must then mark its elements covered and
        decrement the shared counts array.
        """
        d = self._cursor
        while d > 0:
            heap = self._buckets.get(d)
            if not heap:
                d -= 1
                continue
            set_id = heap[0]
            current = int(self._counts[set_id])
            if current < d:
                # Outdated record: re-file into the bucket of the current
                # marginal (Algorithm 1 lines 9-11).
                heapq.heappop(heap)
                if current > 0:
                    heapq.heappush(self._buckets.setdefault(current, []), set_id)
                continue
            heapq.heappop(heap)
            self._cursor = d
            return set_id
        self._cursor = 0
        return None


@dataclass
class GreedyResult:
    """Outcome of a greedy maximum-coverage run."""

    seeds: List[int]
    coverage: int
    num_elements: int
    marginals: List[int] = field(default_factory=list)

    @property
    def fraction(self) -> float:
        """Fraction of elements covered, ``F_R(S)`` in the paper."""
        return self.coverage / self.num_elements if self.num_elements else 0.0


def _pad_with_unselected(seeds: List[int], k: int, num_universe_sets: int) -> None:
    """Fill up to ``k`` seeds with the lowest-id unselected sets.

    Invoked when every remaining marginal is zero (all elements already
    covered); padding keeps the output size exactly ``k`` as the problem
    statement requires.
    """
    chosen = set(seeds)
    candidate = 0
    while len(seeds) < k and candidate < num_universe_sets:
        if candidate not in chosen:
            seeds.append(candidate)
            chosen.add(candidate)
        candidate += 1


def _cannot_pass(accepts, coverage: int, picks_left: int, marginal, num_elements: int) -> bool:
    """Whether a greedy selection at ``coverage`` is past saving for ``accepts``.

    ``marginal`` is the next pick's gain, the largest one left; greedy
    marginals never increase, so ``picks_left`` more picks add at most
    ``picks_left * marginal`` and a non-decreasing test that fails on that
    bound fails on the finished selection.
    """
    return accepts is not None and not accepts(
        coverage + picks_left * int(marginal), num_elements
    )


def greedy_max_coverage(
    stores: Sequence,
    k: int,
    backend: str = "flat",
    initial_counts: np.ndarray | None = None,
    accepts: Callable[[int, int], bool] | None = None,
) -> GreedyResult:
    """Lazy bucket greedy over one or more element stores.

    ``stores`` is any sequence of objects implementing the store protocol
    (:class:`~repro.coverage.problem.CoverageInstance`,
    :class:`~repro.ris.collection.RRCollection` or
    :class:`~repro.ris.flat.FlatRRCollection`); passing several emulates a
    centralized machine that has gathered all machines' elements.

    ``backend`` selects the inner-loop implementation: ``"flat"`` (the
    default) converts each store to CSR arrays and runs the vectorized
    kernel of :mod:`repro.coverage.kernel`; ``"reference"`` walks the
    store protocol element by element and serves as the oracle the
    differential tests compare against.  Both produce byte-for-byte the
    same result.

    ``initial_counts`` supplies pre-aggregated coverage counts (e.g. from
    an incrementally maintained
    :class:`~repro.coverage.state.CoverageState`), skipping the
    ``O(total incidence)`` aggregation pass here.  The array is copied,
    never mutated.

    ``accepts(coverage, num_elements)`` is the caller's test on the
    finished selection, non-decreasing in ``coverage``.  When given, the
    loop stops as soon as the selection can no longer pass it: before
    committing pick ``j + 1`` it tests the upper bound
    ``coverage_j + (k - j) * marginal_{j+1}`` (greedy marginals never
    increase) and, if even that fails, returns the ``j`` seeds it has,
    unpadded.  A selection that would pass is never cut short.

    Complexity is linear in the total incidence size: every
    (element, member) link is touched at most twice, matching the paper's
    analysis of Algorithm 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not stores:
        raise ValueError("need at least one element store")
    resolve_backend(backend)
    num_universe_sets = stores[0].num_nodes
    for store in stores:
        if store.num_nodes != num_universe_sets:
            raise ValueError("all stores must share the same universe of sets")
    if backend == "flat":
        stores = [as_flat(store) for store in stores]
    if initial_counts is not None:
        if initial_counts.size != num_universe_sets:
            raise ValueError("initial_counts has the wrong length")
        counts = initial_counts.astype(np.int64, copy=True)
    else:
        counts = np.zeros(num_universe_sets, dtype=np.int64)
        for store in stores:
            counts += store.coverage_counts()

    covered = [np.zeros(store.num_sets, dtype=bool) for store in stores]
    queue = BucketQueue(counts)
    seeds: List[int] = []
    marginals: List[int] = []
    coverage = 0
    num_elements = sum(store.num_sets for store in stores)

    doomed = False
    while len(seeds) < k:
        seed = queue.pop_max()
        if seed is None:
            break
        # pop_max just verified counts[seed] is the largest marginal.
        if _cannot_pass(accepts, coverage, k - len(seeds), counts[seed], num_elements):
            doomed = True
            break
        gained = 0
        for store_idx, store in enumerate(stores):
            flags = covered[store_idx]
            if backend == "flat":
                gained += mark_and_decrement(store, seed, flags, counts)
                continue
            for element in store.sets_containing(seed):
                if flags[element]:
                    continue
                flags[element] = True
                gained += 1
                counts[store.get(element)] -= 1
        seeds.append(seed)
        marginals.append(gained)
        coverage += gained
    if not doomed:
        _pad_with_unselected(seeds, k, num_universe_sets)
    return GreedyResult(
        seeds=seeds,
        coverage=coverage,
        num_elements=num_elements,
        marginals=marginals,
    )


def naive_greedy_max_coverage(stores: Sequence, k: int) -> GreedyResult:
    """Reference oracle: re-scan every set's marginal each iteration.

    Quadratic and only fit for tests, but shares no data structure with
    :func:`greedy_max_coverage`, making the exact-equality tests between
    the two (and against NEWGREEDI) meaningful.  Tie-breaking: lowest id
    among the largest marginals; zero-marginal iterations pad with the
    lowest-id unselected sets.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    num_universe_sets = stores[0].num_nodes
    covered = [set() for _ in stores]
    seeds: List[int] = []
    marginals: List[int] = []
    num_elements = sum(store.num_sets for store in stores)

    while len(seeds) < k:
        best_set, best_gain = None, 0
        for candidate in range(num_universe_sets):
            if candidate in seeds:
                continue
            gain = 0
            for store_idx, store in enumerate(stores):
                done = covered[store_idx]
                gain += sum(1 for e in store.sets_containing(candidate) if e not in done)
            if gain > best_gain:
                best_set, best_gain = candidate, gain
        if best_set is None:
            break
        for store_idx, store in enumerate(stores):
            covered[store_idx].update(store.sets_containing(best_set))
        seeds.append(best_set)
        marginals.append(best_gain)
    _pad_with_unselected(seeds, k, num_universe_sets)
    return GreedyResult(
        seeds=seeds,
        coverage=sum(len(c) for c in covered),
        num_elements=num_elements,
        marginals=marginals,
    )
