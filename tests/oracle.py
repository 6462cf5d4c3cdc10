"""Per-element oracles for the coverage engines: a dict-indexed RR store and
the loops that walk it.

The shipped engines run every selection through the vectorized CSR kernel
(:mod:`repro.coverage.kernel`) over :class:`~repro.ris.flat.FlatRRCollection`
stores.  The differential tests hold them to what this module computes the
slow, obvious way:

* :class:`RRCollection` — RR sets in a Python list, the inverted index
  ``I_i(v)`` as a dict of insertion-ordered lists grown per appended set;
* :func:`reference_mark_and_decrement` — the centralized greedy's inner
  loop, one element at a time;
* :func:`reference_decrements` — NEWGREEDI's map stage, accumulating
  ``Delta_i`` in a dict;
* :func:`reference_restricted_greedy` — GREEDI's per-partition greedy.

None of it shares code with :mod:`repro.coverage.kernel` or
:func:`repro.ris.flat.build_inverted_index`.  :func:`reference_engine`
swaps these loops into the engines' modules in place of the kernel, so the
protocol code around them — the bucket queue, the phase records, the
priced replies — runs unchanged over the oracle's per-element work; the
``reference_*`` wrappers are the engines run that way.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from importlib import import_module
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np
import pytest

from repro.coverage import greedi, greedy_max_coverage, newgreedi
from repro.coverage.greedy import BucketQueue
from repro.ris.flat import FlatRRCollection
from repro.ris.rrset import RRSample

__all__ = [
    "STORES",
    "RRCollection",
    "engine",
    "reference_decrements",
    "reference_engine",
    "reference_greedi",
    "reference_greedy",
    "reference_mark_and_decrement",
    "reference_newgreedi",
    "reference_restricted_greedy",
]


class RRCollection:
    """An append-only collection of RR sets plus its dict inverted index.

    Implements the RR-store read protocol (``num_nodes`` / ``num_sets`` /
    ``total_size`` / ``total_edges_examined`` / ``get`` /
    ``sets_containing`` / ``coverage_counts`` / ``coverage_of``) and both
    append forms, so executors can grow it like a flat store.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self._num_nodes = num_nodes
        self._sets: List[np.ndarray] = []
        self._index: Dict[int, List[int]] = {}
        self._total_size = 0
        self._total_edges_examined = 0

    @classmethod
    def from_store(cls, store) -> "RRCollection":
        """Copy any store's sets, in order; edges spread evenly per set."""
        collection = cls(store.num_nodes)
        base, extra = divmod(int(store.total_edges_examined), max(store.num_sets, 1))
        for idx in range(store.num_sets):
            nodes = np.array(store.get(idx), dtype=np.int32)
            root = int(nodes[0]) if nodes.size else 0
            edges = base + (1 if idx < extra else 0)
            collection.add(RRSample(nodes=nodes, root=root, edges_examined=edges))
        return collection

    # -- mutation ---------------------------------------------------------
    def add(self, sample: RRSample) -> int:
        """Append one RR set; returns its index within this collection.

        Raises :class:`ValueError` on node ids outside ``[0, num_nodes)``.
        """
        idx = len(self._sets)
        nodes = sample.nodes
        if nodes.size and (int(nodes.min()) < 0 or int(nodes.max()) >= self._num_nodes):
            raise ValueError(f"RR set contains node ids outside [0, {self._num_nodes})")
        self._sets.append(nodes)
        for node in nodes:
            self._index.setdefault(int(node), []).append(idx)
        self._total_size += int(nodes.size)
        self._total_edges_examined += sample.edges_examined
        return idx

    def extend(self, samples: Iterable[RRSample]) -> None:
        """Append many RR sets."""
        for sample in samples:
            self.add(sample)

    def append_arrays(self, nodes, offsets, edges_examined) -> None:
        """Append a CSR batch set by set; ``edges_examined`` is per set."""
        for idx in range(len(offsets) - 1):
            members = np.array(nodes[offsets[idx] : offsets[idx + 1]], dtype=np.int32)
            root = int(members[0]) if members.size else 0
            self.add(RRSample(members, root, int(edges_examined[idx])))

    # -- read access ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_sets(self) -> int:
        """Number of RR sets stored (``|R_i|``)."""
        return len(self._sets)

    @property
    def total_size(self) -> int:
        return self._total_size

    @property
    def total_edges_examined(self) -> int:
        return self._total_edges_examined

    def get(self, idx: int) -> np.ndarray:
        """Node array of the ``idx``-th RR set."""
        return self._sets[idx]

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._sets)

    def sets_containing(self, node: int) -> List[int]:
        """Indices of RR sets that contain ``node`` (``I_i(node)``)."""
        return self._index.get(int(node), [])

    def coverage_counts(self, start: int = 0) -> np.ndarray:
        """Per-node count of RR sets (with index >= ``start``) containing it."""
        counts = np.zeros(self._num_nodes, dtype=np.int64)
        for nodes in self._sets[start:]:
            counts[nodes] += 1
        return counts

    def coverage_of(self, seeds: Iterable[int]) -> int:
        """Number of stored RR sets covered by the seed set."""
        covered: set[int] = set()
        for seed in set(seeds):
            covered.update(self.sets_containing(seed))
        return len(covered)

    def __repr__(self) -> str:
        return (
            f"RRCollection(num_sets={self.num_sets}, total_size={self._total_size}, "
            f"num_nodes={self._num_nodes})"
        )


def reference_mark_and_decrement(store, seed: int, covered: np.ndarray, counts) -> int:
    """Mark ``seed``'s uncovered elements covered, decrementing each
    member's marginal once per element; returns how many were new."""
    newly = 0
    for element in store.sets_containing(seed):
        if covered[element]:
            continue
        covered[element] = True
        newly += 1
        counts[store.get(element)] -= 1
    return newly


def reference_decrements(store, seed: int, covered: np.ndarray):
    """NEWGREEDI's map stage with ``Delta_i`` accumulated in a dict.

    Returns ``(nodes, decrements, newly_covered)`` with the nodes sorted,
    the order the replies ship in.
    """
    delta: Dict[int, int] = {}
    newly = 0
    for element in store.sets_containing(seed):
        if covered[element]:
            continue
        covered[element] = True
        newly += 1
        for node in store.get(element).tolist():
            delta[node] = delta.get(node, 0) + 1
    nodes = np.fromiter(sorted(delta), dtype=np.int64, count=len(delta))
    decrements = np.asarray([delta[node] for node in nodes.tolist()], dtype=np.int64)
    return nodes, decrements, newly


def reference_restricted_greedy(store, candidates: Sequence[int], k: int) -> List[int]:
    """GREEDI's lazy greedy over ``candidates``, one element at a time."""
    counts = np.zeros(store.num_nodes, dtype=np.int64)
    candidate_list = [int(c) for c in candidates]
    for set_id in candidate_list:
        counts[set_id] = len(store.sets_containing(set_id))
    queue = BucketQueue(counts, candidates=candidate_list)
    covered = np.zeros(store.num_sets, dtype=bool)
    selected: List[int] = []
    while len(selected) < k:
        set_id = queue.pop_max()
        if set_id is None:
            break
        reference_mark_and_decrement(store, set_id, covered, counts)
        selected.append(set_id)
    return selected


def _unchanged(store):
    return store


@contextmanager
def reference_engine():
    """Run the coverage engines on the per-element loops above.

    Inside the block ``greedy_max_coverage``, ``greedi`` / ``randgreedi``,
    ``newgreedi`` and :class:`~repro.coverage.newgreedi.NewGreeDiRounds`
    read their stores as given (no CSR copy) and do their per-element work
    with this module's loops.
    """
    # The package re-exports functions under their submodules' names.
    greedy_module, greedi_module, newgreedi_module = (
        import_module(f"repro.coverage.{name}") for name in ("greedy", "greedi", "newgreedi")
    )
    with pytest.MonkeyPatch.context() as patch:
        for module in (greedy_module, greedi_module, newgreedi_module):
            patch.setattr(module, "as_flat", _unchanged)
        for module in (greedy_module, newgreedi_module):
            patch.setattr(module, "FlatArrays", _unchanged)
        patch.setattr(greedy_module, "mark_and_decrement", reference_mark_and_decrement)
        patch.setattr(greedi_module, "_restricted_greedy", reference_restricted_greedy)
        patch.setattr(newgreedi_module, "sparse_decrements", reference_decrements)
        yield


def engine(backend: str):
    """The shipped kernel (``"flat"``) or this module's loops (``"reference"``)."""
    return reference_engine() if backend == "reference" else nullcontext()


def reference_greedy(stores, k: int, **options):
    """``greedy_max_coverage`` on the per-element loop."""
    with reference_engine():
        return greedy_max_coverage(stores, k, **options)


def reference_newgreedi(cluster, k: int, stores, **options):
    """``newgreedi`` with the dict map stage on every machine."""
    with reference_engine():
        return newgreedi(cluster, k, stores=stores, **options)


def reference_greedi(cluster, instance, k: int, **options):
    """``greedi`` with the per-element restricted greedy."""
    with reference_engine():
        return greedi(cluster, instance, k, **options)


#: The shipped store and the oracle's, for tests parametrized over both.
STORES = {"flat": FlatRRCollection, "reference": RRCollection}
