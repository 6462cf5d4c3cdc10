"""Centralized greedy maximum coverage with the paper's lazy bucket scan.

Algorithm 1's master-side engine is a vector ``D`` where ``D(d)`` lists the
sets whose *recorded* marginal coverage is ``d``; the scan walks ``d``
downward and lazily re-files a set found with an outdated record into the
bucket of its current marginal (lines 9-11).  Because marginals only
shrink under submodularity, what that scan returns is the set with the
largest *live* marginal, and :class:`BucketQueue` answers that question
directly from the live counts.

Ties go to the *lowest id among the largest marginals*.  That determinism
is what lets tests assert the exact Lemma 2 equivalence between this
engine, the naive re-scan oracle below, and the distributed NEWGREEDI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .kernel import FlatArrays, as_flat, mark_and_decrement

__all__ = ["BucketQueue", "GreedyResult", "greedy_max_coverage", "naive_greedy_max_coverage"]


#: Entries a :class:`BucketQueue` keeps in view between passes over them all.
ACTIVE_ENTRIES = 1024


class BucketQueue:
    """The vector ``D`` of Algorithm 1, read off the live counts.

    Algorithm 1 files every set under its recorded marginal and re-files
    the outdated ones it meets on the way down (lines 9-11).  Marginals
    only shrink, so the records are implicit in the live array: the queue
    keeps the :data:`ACTIVE_ENTRIES` entries that were largest, lowest id
    first among equals, when last it looked at them all — the top buckets
    of ``D`` — and remembers the smallest of them, its count
    (``_threshold``) and id (``_horizon``).  Every entry left out was no
    larger than that one and, where equal, no lower in id, and can only
    have shrunk since.  So while the largest live count among the active
    entries (first holder, hence lowest id) still ranks at or above that
    mark it is the pick of the full scan; when it no longer does, one pass
    over the remaining entries re-draws the active ones.  The picks are
    those of the bucket scan (Lemma 2 needs nothing else); nothing is
    sorted, filed or re-filed.

    Parameters
    ----------
    counts:
        Live marginal-coverage array, *shared with the caller*, who
        decrements it as elements become covered (never increments).
    candidates:
        Optional subset of set ids eligible for selection (used by GREEDI's
        per-partition runs); defaults to every id.  An id listed twice is
        two entries.
    """

    def __init__(self, counts: np.ndarray, candidates: Sequence[int] | None = None) -> None:
        self._counts = counts
        if candidates is None:
            self._pool = np.flatnonzero(counts > 0)
        else:
            self._pool = np.sort(np.asarray(candidates, dtype=np.int64))
        #: Positions in the pool of popped entries, dropped at the next refill.
        self._popped: List[int] = []
        self._refill()

    def _refill(self) -> None:
        """Drop popped and exhausted entries; re-draw the active ones."""
        pool = np.delete(self._pool, self._popped)
        live = self._counts[pool]
        positive = live > 0
        self._pool, live = pool[positive], live[positive]
        self._popped = []
        self._threshold, self._horizon = 0, -1
        self._active = np.zeros(0, dtype=np.int64)
        if not live.size:
            return
        room = min(ACTIVE_ENTRIES, live.size)
        threshold = np.partition(live, -room)[-room]
        take = live > threshold
        ties = np.flatnonzero(live == threshold)[: room - np.count_nonzero(take)]
        take[ties] = True
        self._active = np.flatnonzero(take)
        self._threshold, self._horizon = int(threshold), int(self._pool[ties[-1]])

    def _best(self) -> int | None:
        """Index into the active entries of the pick, if one is certain."""
        if not self._active.size:
            return None
        ids = self._pool[self._active]
        live = self._counts[ids]
        best = int(live.argmax())
        top = live[best]
        if top > self._threshold or (top == self._threshold and ids[best] <= self._horizon):
            return best
        return None

    def pop_max(self) -> int | None:
        """Return the lowest-id set with the largest current marginal.

        Returns ``None`` when every remaining marginal is zero.  The popped
        entry is removed — it is never returned again, whether or not the
        caller goes on to mark its elements covered and decrement the
        shared counts array.
        """
        best = self._best()
        if best is None:
            self._refill()
            best = self._best()
            if best is None:
                return None
        active = self._active
        position = int(active[best])
        self._active = np.concatenate((active[:best], active[best + 1 :]))
        self._popped.append(position)
        return int(self._pool[position])


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
    initial_counts: np.ndarray | None = None,
    accepts: Callable[[int, int], bool] | None = None,
) -> GreedyResult:
    """Lazy bucket greedy over one or more element stores.

    ``stores`` is any sequence of objects implementing the store protocol
    (:class:`~repro.ris.flat.FlatRRCollection`, a
    :class:`~repro.ris.flat.FlatPrefixView` or a
    :class:`~repro.coverage.problem.CoverageInstance`, which is copied
    into CSR arrays once); passing several emulates a centralized machine
    that has gathered all machines' elements.  The inner loop is the
    vectorized kernel of :mod:`repro.coverage.kernel`.

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
    num_universe_sets = stores[0].num_nodes
    for store in stores:
        if store.num_nodes != num_universe_sets:
            raise ValueError("all stores must share the same universe of sets")
    stores = [FlatArrays(as_flat(store)) for store in stores]
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
        for store, flags in zip(stores, covered):
            gained += mark_and_decrement(store, seed, flags, counts)
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
