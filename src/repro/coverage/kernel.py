"""Vectorized coverage kernel over CSR RR-set stores.

The greedy hot path — marking the elements newly covered by a chosen seed
and decrementing every member node's marginal — is what dominates seed
selection in every figure of the paper.  Instead of walking Python lists
per element, this kernel performs the updates with NumPy fancy indexing
over a :class:`~repro.ris.flat.FlatRRCollection`'s flat arrays:

* ``sets_containing(u)`` is a CSR slice instead of a dict lookup;
* the union of the newly covered sets' contents is one multi-row gather
  (:func:`~repro.ris.flat.gather_rows`);
* the gathered members are counted into the sorted sparse
  ``(node, decrement)`` vector (:func:`sparse_decrements`, NEWGREEDI's
  map-stage ``Delta_i``) by whichever of a histogram or a sort is
  shorter, and :func:`mark_and_decrement` subtracts that vector.

Every store an engine reads is flat (instances from
:mod:`repro.coverage.problem` too) and is read as given, never copied.  A
selection reads a store's arrays once per seed; :class:`FlatArrays`
holds them so the reads are attribute loads.

Both functions perform *exactly* the updates of a per-element loop over a
dict-indexed store — the counts array evolves identically
element-for-element, so the bucket-queue selection (largest marginal,
lowest id on ties) is byte-for-byte that loop's.  The tests hold the
kernel to that equivalence against such a loop (``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..ris.flat import FlatPrefixView, FlatRRCollection, gather_rows

__all__ = [
    "FlatArrays",
    "mark_and_decrement",
    "sparse_decrements",
    "sparse_coverage_delta",
    "apply_sparse_delta",
    "candidate_degrees",
]

def _require_int64_counts(counts: np.ndarray) -> None:
    """Reject narrow marginal-count buffers before they can wrap silently.

    The in-place decrements below (``counts -= bincount(...)``) accept an
    ``int32`` buffer under NumPy's same-kind casting and would overflow
    without a warning once a machine holds >= 2**31 incidences — a scale
    the batched generators reach long before memory runs out.  All repo
    call sites allocate ``int64``; this guard keeps external callers to
    the same contract.
    """
    counts = np.asarray(counts)
    if counts.dtype != np.int64:
        raise TypeError(
            "counts must be an int64 array (narrower dtypes overflow "
            f"silently under large collections), got {counts.dtype}"
        )


class FlatArrays:
    """A flat store's CSR arrays and prefix length, read once.

    :class:`~repro.ris.flat.FlatRRCollection` checks for pending appends
    on every array read and :class:`~repro.ris.flat.FlatPrefixView`
    re-slices its window on each one; a selection reads them per seed per
    machine.  This holds the forward and inverted arrays of the store's
    first ``num_sets`` sets as plain attributes for as long as the store
    is not mutated — one selection.  Both kernels take it in place of the
    store it was built from.
    """

    __slots__ = (
        "store",
        "num_nodes",
        "num_sets",
        "nodes",
        "offsets",
        "inv_sets",
        "inv_offsets",
        "_windowed",
    )

    def __init__(self, store) -> None:
        base = store.base if isinstance(store, FlatPrefixView) else store
        self.store = store
        self.num_nodes = store.num_nodes
        self.num_sets = store.num_sets
        self.nodes = base.nodes
        self.offsets = base.offsets
        self.inv_sets = base.inv_sets
        self.inv_offsets = base.inv_offsets
        self._windowed = self.num_sets < base.num_sets

    def sets_containing(self, node: int) -> np.ndarray:
        """Ascending ids of the first ``num_sets`` sets containing ``node``."""
        if not 0 <= node < self.num_nodes:
            return self.inv_sets[:0]
        row = self.inv_sets[self.inv_offsets[node] : self.inv_offsets[node + 1]]
        if self._windowed:
            row = row[: row.searchsorted(self.num_sets)]
        return row

    def coverage_counts(self, start: int = 0) -> np.ndarray:
        return self.store.coverage_counts(start)


def mark_and_decrement(
    store: FlatRRCollection,
    seed: int,
    covered: np.ndarray,
    counts: np.ndarray,
) -> int:
    """Mark ``seed``'s uncovered elements covered; decrement their members.

    The vectorized form of the centralized greedy's inner loop:
    :func:`sparse_decrements` applied to ``counts`` on the spot.  Returns
    the number of newly covered elements (the seed's realised marginal).
    ``covered`` and ``counts`` are updated in place, exactly as a
    per-element loop would update them.
    """
    _require_int64_counts(counts)
    nodes, decrements, newly = sparse_decrements(store, seed, covered)
    if nodes.size:
        counts[nodes] -= decrements
    return newly


def sparse_decrements(
    store: FlatRRCollection,
    seed: int,
    covered: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """NEWGREEDI map stage: the sparse ``Delta_i`` response for one seed.

    Marks the machine's newly covered elements in place and returns
    ``(nodes, decrements, newly_covered)`` — the multiset ``Delta_i`` of
    Algorithm 1's map stage, as parallel ``int64`` arrays sorted by node,
    ready to ship; its length is the number of distinct member nodes.

    The gathered members are counted with one histogram over the universe
    when they outnumber it twice over, and by sorting them and measuring
    the runs otherwise — the same arrays either way.
    """
    arrays = store if isinstance(store, FlatArrays) else FlatArrays(store)
    empty = np.zeros(0, dtype=np.int64)
    elements = arrays.sets_containing(seed)
    if elements.size == 0:
        return empty, empty, 0
    fresh = elements[~covered[elements]]
    if fresh.size == 0:
        return empty, empty, 0
    covered[fresh] = True
    members = gather_rows(arrays.nodes, arrays.offsets, fresh)
    if members.size == 0:
        return empty, empty, int(fresh.size)
    if members.size >= 2 * arrays.num_nodes:
        histogram = np.bincount(members, minlength=arrays.num_nodes)
        nodes = histogram.nonzero()[0]
        return nodes, histogram[nodes], int(fresh.size)
    members.sort()  # the gather's own copy
    is_start = np.empty(members.size, dtype=bool)
    is_start[0] = True
    np.not_equal(members[1:], members[:-1], out=is_start[1:])
    starts = is_start.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = members.size
    return members[starts].astype(np.int64), ends - starts, int(fresh.size)


def sparse_coverage_delta(store, start: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """One generation wave's sparse ``(node, count)`` coverage delta.

    Counts how many RR sets with index ``>= start`` contain each node and
    returns only the nonzero entries as parallel ``(nodes, counts)``
    arrays — the exact tuple vector a machine ships to the master after a
    wave (Section III-C's traffic optimisation), and the increment a
    :class:`~repro.coverage.state.CoverageState` applies instead of
    re-aggregating the whole collection.  Works on any store exposing
    ``coverage_counts(start=...)``.
    """
    counts = store.coverage_counts(start=start)
    nodes = np.nonzero(counts)[0].astype(np.int64, copy=False)
    return nodes, counts[nodes]


def apply_sparse_delta(
    counts: np.ndarray, nodes: np.ndarray, deltas: np.ndarray, sign: int = 1
) -> None:
    """Apply a sparse ``(node, delta)`` vector to a counts array in place.

    ``sign=+1`` ingests a wave's new coverage (counts grow); ``sign=-1``
    applies a selection round's decrements.  This is the single reduce
    primitive behind both the wave ingestion and NEWGREEDI's master-side
    reduce, so the two paths cannot drift apart.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _require_int64_counts(counts)
    if nodes.size:
        if sign == 1:
            counts[nodes] += deltas
        else:
            counts[nodes] -= deltas


def candidate_degrees(store: FlatRRCollection, candidates: np.ndarray) -> np.ndarray:
    """``|I(v)|`` for each candidate set id — one CSR offset difference."""
    candidates = np.asarray(candidates, dtype=np.int64)
    inv_offsets = store.inv_offsets
    return inv_offsets[candidates + 1] - inv_offsets[candidates]
