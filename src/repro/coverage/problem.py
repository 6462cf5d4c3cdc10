"""The set-element paradigm of maximum coverage.

Section III-B of the paper casts RIS-based seed selection as maximum
coverage: every RR set's index is an *element*, every graph node is a
*set*, and node ``v`` covers element ``j`` iff ``v in R_j``.  The same
paradigm also hosts the paper's standalone maximum-coverage experiment
(Fig 10), where a graph ``G = (V, E)`` is read as ``|V|`` sets over ``|V|``
elements: the set of node ``u`` is its neighborhood ``N_u``.

An instance therefore *is* an RR store: the builders below return a
:class:`~repro.ris.flat.FlatRRCollection` whose ``j``-th "RR set" lists
the (sorted, duplicate-free) ids of the sets covering element ``j``, so
every engine in this package reads it as it reads a machine's ``R_i``.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..graphs.digraph import DirectedGraph
from ..ris.flat import FlatRRCollection, gather_rows

__all__ = ["from_elements", "from_graph", "split_elements"]


def _build(num_sets: int, element_ids, members, num_elements: int) -> FlatRRCollection:
    """The store of ``num_elements`` elements from ``(element, member)``
    pairs: each element's members sorted and duplicate-free."""
    store = FlatRRCollection(num_sets)
    members = np.asarray(members, dtype=np.int64)
    if members.size and (int(members.min()) < 0 or int(members.max()) >= num_sets):
        raise ValueError("element member ids must lie in [0, num_sets)")
    keys = np.unique(np.asarray(element_ids, dtype=np.int64) * num_sets + members)
    offsets = np.zeros(num_elements + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // num_sets, minlength=num_elements), out=offsets[1:])
    store.append_arrays(keys % num_sets, offsets, np.zeros(num_elements, dtype=np.int64))
    return store


def from_elements(num_sets: int, elements: Iterable[Iterable[int]]) -> FlatRRCollection:
    """An explicit instance: one iterable of member-set ids per element.

    Set ids are ``0 .. num_sets - 1``; each element's members are sorted
    and deduplicated.
    """
    rows = [np.asarray(list(members), dtype=np.int64) for members in elements]
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    members = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return _build(num_sets, np.arange(len(rows)).repeat(sizes), members, len(rows))


def from_graph(graph: DirectedGraph, include_self: bool = False) -> FlatRRCollection:
    """The Fig 10 instance: set of node ``u`` covers ``u``'s out-neighbors.

    Element ``v`` lists every node ``u`` with an edge ``<u, v>`` (i.e.
    ``v``'s in-neighbor row), optionally plus ``v`` itself.
    """
    n = graph.num_nodes
    elements = np.arange(n).repeat(np.diff(graph.in_indptr))
    members = graph.in_indices
    if include_self:
        elements = np.concatenate([elements, np.arange(n)])
        members = np.concatenate([members, np.arange(n)])
    return _build(n, elements, members, n)


def split_elements(
    store: FlatRRCollection, num_parts: int, rng: np.random.Generator | None = None
) -> List[FlatRRCollection]:
    """Partition *elements* across ``num_parts`` stores (element-distributed).

    With ``rng`` the assignment is uniform random (the paper's
    random-uniform distribution of RR sets); otherwise round-robin.  Each
    part keeps its elements in their original order, re-indexed from 0.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if rng is None:
        assignment = np.arange(store.num_sets) % num_parts
    else:
        assignment = rng.integers(0, num_parts, size=store.num_sets)
    sizes = np.diff(store.offsets)
    parts = []
    for part in range(num_parts):
        rows = np.flatnonzero(assignment == part)
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(sizes[rows], out=offsets[1:])
        piece = FlatRRCollection(store.num_nodes)
        piece.append_arrays(
            gather_rows(store.nodes, store.offsets, rows), offsets, store.edges_examined[rows]
        )
        parts.append(piece)
    return parts
