"""The set-element paradigm of maximum coverage.

Section III-B of the paper casts RIS-based seed selection as maximum
coverage: every RR set's index is an *element*, every graph node is a
*set*, and node ``v`` covers element ``j`` iff ``v in R_j``.  The same
paradigm also hosts the paper's standalone maximum-coverage experiment
(Fig 10), where a graph ``G = (V, E)`` is read as ``|V|`` sets over ``|V|``
elements: the set of node ``u`` is its neighborhood ``N_u``.

:class:`CoverageInstance` stores both directions of the incidence:

* ``element -> member sets`` (the RR-set contents), which the greedy's
  decrement pass walks, and
* ``set -> covered elements`` (the inverted index ``I(v)``), which the
  greedy's newly-covered pass walks.

It exposes the RR-set store read interface of
:class:`~repro.ris.flat.FlatRRCollection` (``num_nodes``/``num_sets``/
``get``/``sets_containing``/``coverage_counts``), so every algorithm in
this package accepts it; the engines copy it into CSR arrays once
(:func:`~repro.coverage.kernel.as_flat`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..graphs.digraph import DirectedGraph

__all__ = ["CoverageInstance"]


class CoverageInstance:
    """An explicit maximum-coverage instance.

    Parameters
    ----------
    num_universe_sets:
        Number of sets (graph nodes in our applications); set ids are
        ``0 .. num_universe_sets - 1``.
    elements:
        One array/iterable of member-set ids per element.
    """

    def __init__(
        self,
        num_universe_sets: int,
        elements: Iterable[Iterable[int]],
    ) -> None:
        if num_universe_sets <= 0:
            raise ValueError(f"num_universe_sets must be positive, got {num_universe_sets}")
        self._num_universe_sets = num_universe_sets
        self._elements: List[np.ndarray] = []
        self._index: Dict[int, List[int]] = {}
        self._total_size = 0
        for members in elements:
            arr = np.unique(np.asarray(list(members), dtype=np.int32))
            if arr.size and (arr[0] < 0 or arr[-1] >= num_universe_sets):
                raise ValueError("element member ids must lie in [0, num_universe_sets)")
            idx = len(self._elements)
            self._elements.append(arr)
            for sid in arr:
                self._index.setdefault(int(sid), []).append(idx)
            self._total_size += int(arr.size)

    # -- store protocol (mirrors FlatRRCollection) ----------------------
    @property
    def num_nodes(self) -> int:
        """Number of sets; named ``num_nodes`` to match the RR-set stores."""
        return self._num_universe_sets

    @property
    def num_sets(self) -> int:
        """Number of *elements* stored (RR-store naming: its RR sets)."""
        return len(self._elements)

    @property
    def total_size(self) -> int:
        """Total incidence size (sum of element cardinalities)."""
        return self._total_size

    def get(self, idx: int) -> np.ndarray:
        """Member-set ids of the ``idx``-th element."""
        return self._elements[idx]

    def sets_containing(self, set_id: int) -> List[int]:
        """Element indices covered by ``set_id`` (the inverted index)."""
        return self._index.get(int(set_id), [])

    def coverage_counts(self, start: int = 0) -> np.ndarray:
        """Per-set count of elements (index >= ``start``) it covers."""
        counts = np.zeros(self._num_universe_sets, dtype=np.int64)
        for members in self._elements[start:]:
            counts[members] += 1
        return counts

    def coverage_of(self, set_ids: Iterable[int]) -> int:
        """Number of elements covered by a collection of sets."""
        covered: set[int] = set()
        for sid in set(set_ids):
            covered.update(self.sets_containing(sid))
        return len(covered)

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:
        return (
            f"CoverageInstance(sets={self._num_universe_sets}, "
            f"elements={len(self._elements)}, total_size={self._total_size})"
        )

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_sets(
        cls,
        num_universe_sets: int,
        elements: Sequence[Iterable[int]],
    ) -> "CoverageInstance":
        """Alias constructor for readability at call sites."""
        return cls(num_universe_sets, elements)

    @classmethod
    def from_graph(cls, graph: DirectedGraph, include_self: bool = False) -> "CoverageInstance":
        """The Fig 10 instance: set of node ``u`` covers ``u``'s out-neighbors.

        Element ``v`` lists every node ``u`` with an edge ``<u, v>`` (i.e.
        ``v``'s in-neighbors), optionally plus ``v`` itself.
        """
        elements = []
        for v in range(graph.num_nodes):
            members = graph.in_neighbors(v).tolist()
            if include_self:
                members.append(v)
            elements.append(members)
        return cls(graph.num_nodes, elements)

    def subinstance(self, element_indices: Sequence[int]) -> "CoverageInstance":
        """A new instance containing only the chosen elements (re-indexed)."""
        return CoverageInstance(
            self._num_universe_sets,
            [self._elements[i] for i in element_indices],
        )

    def split(
        self, num_parts: int, rng: np.random.Generator | None = None
    ) -> List["CoverageInstance"]:
        """Partition *elements* across ``num_parts`` stores (element-distributed).

        With ``rng`` the assignment is uniform random (the paper's
        random-uniform distribution of RR sets); otherwise round-robin.
        """
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if rng is None:
            assignment = np.arange(len(self._elements)) % num_parts
        else:
            assignment = rng.integers(0, num_parts, size=len(self._elements))
        return [
            self.subinstance(np.flatnonzero(assignment == part))
            for part in range(num_parts)
        ]
