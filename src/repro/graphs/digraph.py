"""Compact directed graph in compressed sparse row (CSR) form.

The whole library operates on :class:`DirectedGraph`: an immutable directed
graph whose out-adjacency and in-adjacency are both stored as CSR arrays.
Influence propagation needs the out-adjacency (forward simulation), while
reverse influence sampling walks the in-adjacency, so both directions are
materialised once at construction time.  :class:`VersionedGraph` is the
one mutable kind: a :class:`GraphDelta` replaces its arrays whole, and no
array is ever written in place.

Each edge ``<u, v>`` carries a propagation probability ``p_{u,v}`` stored in
parallel to the adjacency arrays.  Probabilities default to zero until a
weighting scheme from :mod:`repro.graphs.weights` assigns them.
"""

from __future__ import annotations

import mmap
from contextlib import suppress
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "DirectedGraph",
    "GraphDelta",
    "SharedGraphHandle",
    "VersionedGraph",
]

#: The six CSR arrays that fully describe a graph, in block layout order.
_CSR_FIELDS = (
    "out_indptr",
    "out_indices",
    "out_probs",
    "in_indptr",
    "in_indices",
    "in_probs",
)


def _export_block(arrays: Dict[str, np.ndarray]) -> Tuple[Any, Dict[str, Tuple[int, str, int]]]:
    """Pack named arrays into one shared-memory block; return (shm, layout).

    The layout maps each name to ``(offset, dtype.str, size)`` so any
    process can rebuild zero-copy views with :func:`_attach_views`.
    """
    from multiprocessing import shared_memory

    layout: Dict[str, Tuple[int, str, int]] = {}
    offset = 0
    for field, array in arrays.items():
        # Align each array to its itemsize so the views are cheap.
        align = array.dtype.itemsize
        offset = (offset + align - 1) // align * align
        layout[field] = (offset, array.dtype.str, int(array.size))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for field, array in arrays.items():
        start, dtype, size = layout[field]
        view = np.ndarray(size, dtype=dtype, buffer=shm.buf, offset=start)
        view[:] = array
    return shm, layout


def _attach_views(buf, layout: Dict[str, Tuple[int, str, int]]) -> Dict[str, np.ndarray]:
    """Read-only views into a block exported by :func:`_export_block`."""
    views: Dict[str, np.ndarray] = {}
    for field, (start, dtype, size) in layout.items():
        view = np.ndarray(size, dtype=dtype, buffer=buf, offset=start)
        view.flags.writeable = False
        views[field] = view
    return views


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer ``keys`` in ``[0, bound)``.

    NumPy's stable sort of 16-bit keys is a counting (radix) sort, and a
    stable sort's permutation is unique, so ids below ``2**16`` (every
    stand-in's) take one counting pass; wider ids take the stable sort
    itself.
    """
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    return np.argsort(keys, kind="stable")


def _pair_order(sources: np.ndarray, targets: np.ndarray, bound: int) -> np.ndarray:
    """The stable order of the ``(source, target)`` pairs, lexicographic:
    a pass by target, then a stable pass by source."""
    order = _stable_order(targets, bound)
    return order[_stable_order(sources[order], bound)]


def _pair_starts(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Of pairs in :func:`_pair_order`, which ones begin a run of equal pairs."""
    starts = np.ones(sources.size, dtype=bool)
    starts[1:] = (sources[1:] != sources[:-1]) | (targets[1:] != targets[:-1])
    return starts


def _mapped(size: int, dtype) -> np.ndarray:
    """``size`` zeroed values in a private anonymous mapping of their own.

    Always fresh pages, given back whole when the array is dropped; an
    ``np.empty`` or ``np.zeros`` of the same size reuses a freed heap hole
    when one fits, which makes a process's peak memory turn on its
    allocation history.
    """
    nbytes = size * np.dtype(dtype).itemsize
    block = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(block, dtype=dtype)


def _huge_pages(array: np.ndarray, nbytes: int) -> None:
    """Ask for huge pages under the first ``nbytes`` of a :func:`_mapped`
    array once they span 4 MiB, as NumPy does for its own arrays; a
    smaller span keeps small pages and backs only the ones it touches."""
    if nbytes >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        with suppress(OSError):
            # array.base is the memoryview NumPy took of the mmap.
            array.base.obj.madvise(mmap.MADV_HUGEPAGE, 0, nbytes)


def _kept(size: int, dtype) -> np.ndarray:
    """An empty array of ``size`` values for a graph to keep: once it
    spans 1 MiB, :func:`_mapped`.

    A graph outlives the temporaries its build frees around it.  On the
    heap its arrays would pin the holes those leave, and the peak memory
    of later work (a draw's buffers, a store's growth) would turn on the
    build's allocation history.  So a graph that is built, reweighted or
    loaded keeps its arrays here; an update's splice does not
    (:func:`_splice`).
    """
    nbytes = size * np.dtype(dtype).itemsize
    if nbytes < 1 << 20:
        return np.empty(size, dtype=dtype)
    array = _mapped(size, dtype)
    _huge_pages(array, nbytes)
    return array


def _kept_copy(array: np.ndarray, dtype=None) -> np.ndarray:
    """A :func:`_kept` copy of ``array`` (cast to ``dtype`` if given)."""
    copy = _kept(array.size, array.dtype if dtype is None else dtype)
    copy[:] = array
    return copy


def _indptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of the rows named by ``keys`` (ids in ``[0, n)``)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr


class SharedGraphHandle:
    """Owner of one shared-memory block holding a graph's CSR arrays.

    Created by :meth:`DirectedGraph.to_shared` in the master process; its
    picklable :attr:`spec` travels to workers, which attach read-only
    views via :meth:`DirectedGraph.from_shared` instead of unpickling a
    graph copy.  The handle owns the segment's lifetime: call
    :meth:`unlink` (idempotent, also invoked by ``__del__`` as a
    backstop) when no process needs the block any more.
    """

    def __init__(self, shm: Any, spec: Dict[str, Any]) -> None:
        self._shm = shm
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec["name"]

    def unlink(self) -> None:
        """Unmap and remove the segment.  Safe to call more than once."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # already removed (e.g. stale tmpdir)
                pass

    def __enter__(self) -> "SharedGraphHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unlink()

    def __del__(self) -> None:
        try:
            self.unlink()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "unlinked" if self._shm is None else f"name={self.name!r}"
        return f"SharedGraphHandle({state})"


class DirectedGraph:
    """An immutable directed graph with per-edge propagation probabilities.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.  Nodes are the integers ``0 .. n - 1``.
    sources, targets:
        Parallel integer arrays of length ``m`` describing the edge list.
    probs:
        Optional parallel float array of propagation probabilities.  When
        omitted every edge probability is zero (assign weights later with
        :mod:`repro.graphs.weights`).

    Notes
    -----
    The constructor orders the edge list twice (once by source, once by
    target), each a stable counting pass over 16-bit ids when ``n <= 2**16``
    (:func:`_stable_order`), so a row keeps its edges in list order; an
    array of 1 MiB or more is kept in a mapping of its own (:func:`_kept`).
    Use :class:`repro.graphs.builder.GraphBuilder` for incremental
    construction.
    """

    __slots__ = (
        "_n",
        "_m",
        "out_indptr",
        "out_indices",
        "out_probs",
        "in_indptr",
        "in_indices",
        "in_probs",
        "_in_prob_sums",
        "_shm",
    )

    def __init__(
        self,
        num_nodes: int,
        sources: Sequence[int],
        targets: Sequence[int],
        probs: Sequence[float] | None = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("sources and targets must be 1-D arrays of equal length")
        if probs is None:
            prob = np.zeros(src.shape[0], dtype=np.float64)
        else:
            prob = np.asarray(probs, dtype=np.float64)
            if prob.shape != src.shape:
                raise ValueError("probs must have the same length as the edge list")
        if src.size:
            if src.min() < 0 or dst.min() < 0:
                raise ValueError("node ids must be non-negative")
            if src.max() >= num_nodes or dst.max() >= num_nodes:
                raise ValueError("node id exceeds num_nodes - 1")
            if prob.min() < 0.0 or prob.max() > 1.0:
                raise ValueError("edge probabilities must lie in [0, 1]")

        self._n = int(num_nodes)
        self._m = int(src.size)

        # Out-adjacency: edges ordered by source node.
        order = _stable_order(src, self._n)
        self.out_indptr = _indptr(src, self._n)
        self.out_indices = np.take(dst, order, out=_kept(self._m, np.int32))
        self.out_probs = np.take(prob, order, out=_kept(self._m, np.float64))

        # In-adjacency: edges ordered by target node.
        order = _stable_order(dst, self._n)
        self.in_indptr = _indptr(dst, self._n)
        self.in_indices = np.take(src, order, out=_kept(self._m, np.int32))
        self.in_probs = np.take(prob, order, out=_kept(self._m, np.float64))

        self._in_prob_sums: np.ndarray | None = None
        self._shm = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._m

    def nodes(self) -> range:
        """All node ids as a range."""
        return range(self._n)

    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of edges leaving ``u`` (view, do not mutate)."""
        return self.out_indices[self.out_indptr[u] : self.out_indptr[u + 1]]

    def out_probabilities(self, u: int) -> np.ndarray:
        """Probabilities of edges leaving ``u``, parallel to out_neighbors."""
        return self.out_probs[self.out_indptr[u] : self.out_indptr[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of edges entering ``v`` (view, do not mutate)."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def in_probabilities(self, v: int) -> np.ndarray:
        """Probabilities of edges entering ``v``, parallel to in_neighbors."""
        return self.in_probs[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_degree(self, u: int) -> int:
        """Number of edges leaving ``u``."""
        return int(self.out_indptr[u + 1] - self.out_indptr[u])

    def in_degree(self, v: int) -> int:
        """Number of edges entering ``v``."""
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an array."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node as an array."""
        return np.diff(self.in_indptr)

    def in_probability_sum(self, v: int) -> float:
        """Sum of incoming edge probabilities of ``v`` (LT stop threshold)."""
        return float(self.in_probability_sums()[v])

    def in_probability_sums(self) -> np.ndarray:
        """Cached per-node sums of incoming edge probabilities."""
        if self._in_prob_sums is None:
            if self._m:
                targets = np.repeat(np.arange(self._n), np.diff(self.in_indptr))
                sums = np.bincount(targets, weights=self.in_probs, minlength=self._n)
            else:
                sums = np.zeros(self._n, dtype=np.float64)
            self._in_prob_sums = sums
        return self._in_prob_sums

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, p)`` triples in out-CSR order."""
        for u in range(self._n):
            start, stop = self.out_indptr[u], self.out_indptr[u + 1]
            for idx in range(start, stop):
                yield u, int(self.out_indices[idx]), float(self.out_probs[idx])

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, targets, probs)`` arrays in out-CSR order."""
        sources = np.repeat(np.arange(self._n, dtype=np.int32), np.diff(self.out_indptr))
        return sources, self.out_indices.copy(), self.out_probs.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``<u, v>`` exists."""
        neighbors = self.out_neighbors(u)
        return bool(np.any(neighbors == v))

    def edge_probability(self, u: int, v: int) -> float:
        """Probability of edge ``<u, v>``; raises ``KeyError`` if absent."""
        start, stop = self.out_indptr[u], self.out_indptr[u + 1]
        for idx in range(start, stop):
            if self.out_indices[idx] == v:
                return float(self.out_probs[idx])
        raise KeyError(f"edge <{u}, {v}> not in graph")

    # ------------------------------------------------------------------
    # Shared-memory export / attach (zero-copy worker broadcast)
    # ------------------------------------------------------------------
    def to_shared(self) -> SharedGraphHandle:
        """Export the six CSR arrays into one shared-memory block.

        Returns a :class:`SharedGraphHandle` whose picklable ``spec``
        lets any process on the machine rebuild this graph with
        :meth:`from_shared` at zero copy cost.  Raises whatever the
        platform raises when POSIX shared memory is unavailable
        (``ImportError``/``OSError``) — callers that want the copy-based
        fallback catch and degrade.
        """
        arrays = {field: getattr(self, field) for field in _CSR_FIELDS}
        shm, layout = _export_block(arrays)
        spec = {
            "name": shm.name,
            "num_nodes": self._n,
            "num_edges": self._m,
            "arrays": layout,
        }
        return SharedGraphHandle(shm, spec)

    @staticmethod
    def from_shared(spec: Dict[str, Any]) -> "DirectedGraph":
        """Attach to a block exported by :meth:`to_shared` (read-only).

        The returned graph's CSR arrays are immutable views into the
        shared block — no data is copied.  Attaching re-registers the
        segment with the ``resource_tracker``; within one process tree
        the tracker (inherited by fork and spawn alike) keeps a *set* of
        names, so this is an idempotent no-op and the exporting
        :class:`SharedGraphHandle` remains the sole owner: its
        ``unlink`` both removes the segment and retires the single
        tracker entry.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=spec["name"], create=False)
        # The graph keeps the mapping alive as long as its views.
        return DirectedGraph._over(_attach_views(shm.buf, spec["arrays"]), shm)

    @staticmethod
    def _over(arrays: Dict[str, np.ndarray], shm: Any = None) -> "DirectedGraph":
        """A plain graph over existing CSR arrays: no copy, no sort."""
        graph = object.__new__(DirectedGraph)
        for field in _CSR_FIELDS:
            setattr(graph, field, arrays[field])
        graph._n = int(graph.in_indptr.size - 1)
        graph._m = int(graph.in_indptr[-1])
        graph._in_prob_sums = None
        graph._shm = shm
        return graph

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_probabilities(self, probs: np.ndarray) -> "DirectedGraph":
        """Return a copy of this graph with new out-CSR-ordered probabilities.

        The copy shares the out-CSR structure (and so an attached graph's
        mapping) and ``in_indptr``; :meth:`_in_entries` lays out the
        in-rows.
        """
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self._m,):
            raise ValueError("probs must have the same length as the edge list")
        prob = _kept_copy(probs)
        if prob.size and (prob.min() < 0.0 or prob.max() > 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        in_indices, in_probs = self._in_entries(prob)
        arrays = {
            "out_indptr": self.out_indptr,
            "out_indices": self.out_indices,
            "out_probs": prob,
            "in_indptr": self.in_indptr,
            "in_indices": in_indices,
            "in_probs": in_probs,
        }
        return DirectedGraph._over(arrays, self._shm)

    def _in_entries(self, prob: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(in_indices, in_probs)`` for out-CSR-ordered ``prob``: each
        in-row listed by source, in out-CSR order — the graph rebuilt from
        :meth:`edge_arrays`, with no sort of the edge list."""
        order = _stable_order(self.out_indices, self._n)
        sources = np.repeat(np.arange(self._n, dtype=np.int32), np.diff(self.out_indptr))
        return (
            np.take(sources, order, out=_kept(self._m, np.int32)),
            np.take(prob, order, out=_kept(self._m, np.float64)),
        )

    def reversed(self) -> "DirectedGraph":
        """Return the graph with every edge direction flipped."""
        sources, targets, probs = self.edge_arrays()
        return DirectedGraph(self._n, targets, sources, probs)

    def without_nodes(self, nodes) -> "DirectedGraph":
        """Return the graph with all edges incident to ``nodes`` removed.

        Node ids are preserved (the removed nodes stay as isolated ids),
        which keeps RR sets and seed ids comparable across residual
        graphs — the operation adaptive influence maximization applies
        after observing a cascade.
        """
        removed = np.zeros(self._n, dtype=bool)
        removed[np.asarray(list(nodes), dtype=np.int64)] = True
        sources, targets, probs = self.edge_arrays()
        keep = ~(removed[sources] | removed[targets])
        return DirectedGraph(self._n, sources[keep], targets[keep], probs[keep])

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"DirectedGraph(n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
            and np.allclose(self.out_probs, other.out_probs)
        )

    def __hash__(self) -> int:  # graphs are mutable-array holders; identity hash
        return id(self)


# ----------------------------------------------------------------------
# Dynamic graphs: mutation batches and versioning
# ----------------------------------------------------------------------
def _edge_arrays(edges, with_probs: bool):
    """Normalize an iterable of ``(u, v[, p])`` into parallel arrays."""
    triples = list(edges)
    width = 3 if with_probs else 2
    for item in triples:
        if len(item) != width:
            raise ValueError(
                f"expected {'(u, v, p)' if with_probs else '(u, v)'} entries, "
                f"got {item!r}"
            )
    sources = np.asarray([int(t[0]) for t in triples], dtype=np.int64)
    targets = np.asarray([int(t[1]) for t in triples], dtype=np.int64)
    if sources.size and (sources.min() < 0 or targets.min() < 0):
        raise ValueError("node ids must be non-negative")
    if not with_probs:
        return sources, targets, np.zeros(0, dtype=np.float64)
    probs = np.asarray([float(t[2]) for t in triples], dtype=np.float64)
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    return sources, targets, probs


class GraphDelta:
    """One batch of graph mutations, applied atomically by
    :meth:`VersionedGraph.apply`.

    Parameters
    ----------
    add_edges:
        Iterable of ``(u, v, p)`` triples to insert.  Parallel edges are
        allowed, matching the :class:`DirectedGraph` constructor.
    remove_edges:
        Iterable of ``(u, v)`` pairs; removes *every* parallel ``<u, v>``
        entry and raises ``ValueError`` when the edge is absent.
    reweight_edges:
        Iterable of ``(u, v, p)`` triples assigning a new probability to
        every ``<u, v>`` entry; raises when the edge is absent.
    remove_nodes:
        Node ids whose incident edges are all dropped.  The ids stay in
        the graph as isolated nodes (mirroring
        :meth:`DirectedGraph.without_nodes`), so RR sets and seeds remain
        comparable across updates.
    add_nodes:
        Number of fresh node ids to append (``n .. n + add_nodes - 1``).
    """

    __slots__ = (
        "add_sources",
        "add_targets",
        "add_probs",
        "remove_sources",
        "remove_targets",
        "reweight_sources",
        "reweight_targets",
        "reweight_probs",
        "remove_nodes",
        "add_nodes",
    )

    def __init__(
        self,
        *,
        add_edges=(),
        remove_edges=(),
        reweight_edges=(),
        remove_nodes=(),
        add_nodes: int = 0,
    ) -> None:
        self.add_sources, self.add_targets, self.add_probs = _edge_arrays(
            add_edges, with_probs=True
        )
        self.remove_sources, self.remove_targets, __ = _edge_arrays(
            remove_edges, with_probs=False
        )
        self.reweight_sources, self.reweight_targets, self.reweight_probs = (
            _edge_arrays(reweight_edges, with_probs=True)
        )
        nodes = np.asarray([int(w) for w in remove_nodes], dtype=np.int64)
        if nodes.size and nodes.min() < 0:
            raise ValueError("node ids must be non-negative")
        self.remove_nodes = np.unique(nodes)
        if int(add_nodes) < 0:
            raise ValueError(f"add_nodes must be >= 0, got {add_nodes}")
        self.add_nodes = int(add_nodes)

    @property
    def num_changes(self) -> int:
        """Total mutations in the batch (edges + nodes)."""
        return int(
            self.add_sources.size
            + self.remove_sources.size
            + self.reweight_sources.size
            + self.remove_nodes.size
            + self.add_nodes
        )

    @property
    def is_empty(self) -> bool:
        return self.num_changes == 0

    def to_json(self) -> Dict[str, Any]:
        """A JSON-safe dict, the wire format of the serving ``update`` op."""
        return {
            "add_edges": [
                [int(u), int(v), float(p)]
                for u, v, p in zip(self.add_sources, self.add_targets, self.add_probs)
            ],
            "remove_edges": [
                [int(u), int(v)]
                for u, v in zip(self.remove_sources, self.remove_targets)
            ],
            "reweight_edges": [
                [int(u), int(v), float(p)]
                for u, v, p in zip(
                    self.reweight_sources, self.reweight_targets, self.reweight_probs
                )
            ],
            "remove_nodes": [int(w) for w in self.remove_nodes],
            "add_nodes": self.add_nodes,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_json` output (unknown keys raise)."""
        known = {"add_edges", "remove_edges", "reweight_edges", "remove_nodes", "add_nodes"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown GraphDelta fields: {sorted(unknown)}")
        return cls(
            add_edges=payload.get("add_edges", ()),
            remove_edges=payload.get("remove_edges", ()),
            reweight_edges=payload.get("reweight_edges", ()),
            remove_nodes=payload.get("remove_nodes", ()),
            add_nodes=payload.get("add_nodes", 0),
        )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(+{self.add_sources.size}e/-{self.remove_sources.size}e/"
            f"~{self.reweight_sources.size}e, -{self.remove_nodes.size}n/"
            f"+{self.add_nodes}n)"
        )


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, counts)``: the array positions of ``rows``' entries,
    row after row, and each row's length."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total), counts


def _lookup(table: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(hit, at)``: which ``keys`` are in the sorted unique ``table``,
    and where (meaningful where hit)."""
    if table.size == 0:
        return np.zeros(keys.size, dtype=bool), np.zeros(keys.size, dtype=np.int64)
    at = np.searchsorted(table, keys).clip(max=table.size - 1)
    return table[at] == keys, at


def _splice(indptr, indices, probs, rows, owner, other, prob):
    """One CSR direction in which ``rows`` (ascending) hold ``other`` /
    ``prob``, grouped by ``owner`` in row order.

    When no row changes length the layout stands: ``indptr`` is shared,
    and so is each value array whose rows kept their entries (a
    reweight-only delta copies only ``probs``).  Otherwise fresh arrays
    are laid out, every span of unchanged rows copied in one slice.
    Nothing is sorted and no input array is written.

    The new arrays are heap arrays, not :func:`_kept` mappings: an update
    stream frees one version's arrays as it makes the next, and the heap
    hands those pages back, where a fresh mapping per update faults in
    every page it writes.
    """
    if rows.size == 0:
        return indptr, indices, probs
    counts = np.diff(indptr)
    lengths = np.searchsorted(owner, rows, "right") - np.searchsorted(owner, rows)
    if np.array_equal(counts[rows], lengths):
        at = _row_positions(indptr, rows)[0]
        spliced = []
        for value, fill in ((indices, other), (probs, prob)):
            if not np.array_equal(value[at], fill):
                value = value.copy()
                value[at] = fill
            spliced.append(value)
        return indptr, *spliced
    n = indptr.size - 1
    counts[rows] = lengths
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    new_indices = np.empty(int(new_indptr[-1]), dtype=indices.dtype)
    new_probs = np.empty(new_indices.size, dtype=probs.dtype)
    firsts = [0, *(rows + 1).tolist()]
    lasts = [*rows.tolist(), n]
    for first, last in zip(firsts, lasts):
        lo, hi, at = int(indptr[first]), int(indptr[last]), int(new_indptr[first])
        new_indices[at : at + hi - lo] = indices[lo:hi]
        new_probs[at : at + hi - lo] = probs[lo:hi]
    at = _row_positions(new_indptr, rows)[0]
    new_indices[at] = other
    new_probs[at] = prob
    return new_indptr, new_indices, new_probs


def _stable_slots(rows, counts, keep, add_owners):
    """Each kept entry's and each added edge's slot in its updated row,
    under the rank-stable rule (:class:`VersionedGraph`).

    ``rows`` (ascending) own ``counts`` entries each, laid out row after
    row in rank order; ``keep`` marks the survivors and ``add_owners``
    (each one of ``rows``) the added edges in delta order.  A removed
    entry's slot takes the row's next insert, or else its last survivor;
    leftover inserts go after the old end.  Returns ``(kept slots, added
    slots)``, each row's slots a permutation of ``0 .. length - 1``.
    """
    row = np.repeat(np.arange(rows.size), counts)
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    holes = np.bincount(row[~keep], minlength=rows.size)
    hole_rank = rank[~keep]  # row after row, ascending within a row
    first_hole = np.cumsum(holes) - holes
    add_row = np.searchsorted(rows, add_owners)
    inserts = np.bincount(add_row, minlength=rows.size)
    # An insert's ordinal among its row's inserts, in delta order.
    by_row = np.argsort(add_row, kind="stable")
    nth = np.empty(add_row.size, dtype=np.int64)
    nth[by_row] = np.arange(add_row.size) - np.repeat(np.cumsum(inserts) - inserts, inserts)
    add_slot = counts[add_row] + nth - holes[add_row]
    filling = nth < holes[add_row]
    add_slot[filling] = hole_rank[first_hole[add_row[filling]] + nth[filling]]
    # Survivors past the new length move, the last one into the first
    # hole no insert filled.
    length = counts - holes + inserts
    row, slot = row[keep], rank[keep]
    tail = slot >= length[row]
    tail_row = row[tail]
    tails = np.bincount(tail_row, minlength=rows.size)
    from_end = np.cumsum(tails)[tail_row] - 1 - np.arange(tail_row.size)
    slot[tail] = hole_rank[first_hole[tail_row] + inserts[tail_row] + from_end]
    return slot, add_slot


def _patch(csr, rows, by_target, edits, adds):
    """One direction of :meth:`VersionedGraph.apply`: ``rows``' surviving
    entries, reweighted, and the added ones, spliced into fresh arrays —
    in-rows in the rank-stable order of :func:`_stable_slots`, out-rows
    with the survivors in order and the adds appended.  Returns
    ``(arrays, dropped keys found, reweighted keys found)``, the last two
    as distinct keys.

    ``by_target`` says whether a row's owner is its edges' target;
    ``edits`` is ``(n, removed-node mask, dropped keys, (reweighted keys,
    their probabilities))`` and ``adds`` is ``(owners, others, probs)``.
    """
    indptr, indices, probs = csr
    n, removed, dropped, reweights = edits
    at, counts = _row_positions(indptr, rows)
    owner = np.repeat(rows, counts)
    other = indices[at].astype(np.int64)
    prob = probs[at]
    keys = other * n + owner if by_target else owner * n + other
    gone = _lookup(dropped, keys)[0]
    keep = ~(removed[owner] | removed[other] | gone)
    kept, prob = keys[keep], prob[keep]
    found, at = _lookup(reweights[0], kept)
    prob[found] = reweights[1][at[found]]
    owner = np.concatenate((owner[keep], adds[0]))
    if by_target:
        order = np.lexsort((np.concatenate(_stable_slots(rows, counts, keep, adds[0])), owner))
    else:
        order = np.argsort(owner, kind="stable")
    spliced = _splice(
        indptr,
        indices,
        probs,
        rows,
        owner[order],
        np.concatenate((other[keep], adds[1]))[order],
        np.concatenate((prob, adds[2]))[order],
    )
    return spliced, np.unique(keys[gone]), np.unique(kept[found])


class VersionedGraph(DirectedGraph):
    """A :class:`DirectedGraph` that takes :class:`GraphDelta` updates.

    It holds one current CSR pair, like any graph.  :meth:`apply` builds
    the changed rows, splices them into fresh ``in_*`` / ``out_*`` arrays
    and swaps those in (sharing ``indptr`` and every unchanged value
    array when no row changes length).  No array is ever written in
    place, so shared-memory exports and samplers built before an update
    stay valid (and stale: the executors' ``refresh_graph`` rebases their
    samplers on the touched rows, or rebuilds the ones that cannot be).

    Row-order invariant (rank-stable in-rows): coins are keyed by an
    edge's rank in its in-row, so an updated in-row keeps every surviving
    entry at its rank.  A removed entry's slot takes the row's first
    insert (in delta order), or else the row's last survivor; the inserts
    left over are appended.  A removal therefore moves at most one
    surviving edge and a reweight or an insert moves none, which is what
    lets a repair keep every RR set whose touched rows draw the same
    outcome (:meth:`SamplePool.repair <repro.core.pool.SamplePool.repair>`).
    Out-rows keep their survivors in order and append the inserts, and a
    reweighted copy (:meth:`with_probabilities`) keeps every row.  The
    samplers draw on an updated graph exactly what they draw on a
    :class:`DirectedGraph` built from the same edges listed in that
    in-row order.

    Node additions change the root-draw range of every RR set, so
    :meth:`apply` reports *all* sets as touched (returns ``None``) for
    them.
    """

    __slots__ = ("version",)

    def __init__(self, graph: DirectedGraph) -> None:
        if not isinstance(graph, DirectedGraph) or isinstance(graph, VersionedGraph):
            raise TypeError(
                f"VersionedGraph wraps a plain DirectedGraph, got {type(graph).__name__}"
            )
        self._adopt(graph)
        self._shm = graph._shm  # an attached graph's mapping outlives its views
        #: Bumped by every applied :class:`GraphDelta`.
        self.version = 0

    def _adopt(self, graph: DirectedGraph) -> None:
        for field in _CSR_FIELDS:
            setattr(self, field, getattr(graph, field))
        self._n, self._m = graph._n, graph._m
        self._in_prob_sums = graph._in_prob_sums

    def apply(
        self, delta: GraphDelta, validate: Callable[[DirectedGraph], None] | None = None
    ) -> np.ndarray | None:
        """Land one mutation batch: splice fresh CSR arrays and swap them in.

        Each edge's fate is decided once and both directions follow it:
        an edge incident to a removed node is dropped (ones the same
        delta adds included), ``remove_edges`` drops every parallel
        ``<u, v>`` entry, ``reweight_edges`` sets the probability of the
        surviving ones, and the other added edges are appended.
        ``validate``, when given, receives the candidate graph before it
        is committed; whatever it raises refuses the delta and leaves
        this graph unchanged.

        Returns the ascending array of nodes whose *in-rows* changed —
        exactly the RR-set invalidation keys (a reverse traversal
        examines the in-row of every node it collects, so the RR sets
        that consulted a changed edge are the sets containing its
        target) — or ``None`` when every RR set must be considered
        touched (node additions change the root-draw range).  Bumps
        :attr:`version`; the object's identity is preserved so resident
        pools and configs keep referring to the same graph.
        """
        if not isinstance(delta, GraphDelta):
            raise TypeError(f"apply takes a GraphDelta, got {type(delta).__name__}")
        n = self._n + delta.add_nodes
        for ids, what in (
            (delta.add_sources, "add_edges sources"),
            (delta.add_targets, "add_edges targets"),
            (delta.remove_sources, "remove_edges sources"),
            (delta.remove_targets, "remove_edges targets"),
            (delta.reweight_sources, "reweight_edges sources"),
            (delta.reweight_targets, "reweight_edges targets"),
            (delta.remove_nodes, "remove_nodes"),
        ):
            if ids.size and int(ids.max()) >= n:
                raise ValueError(f"{what} contain node ids >= num_nodes ({n})")
        removed = np.zeros(n, dtype=bool)
        removed[delta.remove_nodes] = True
        # An edge is named by its pair key u * n + v in both directions.
        dropped = np.unique(delta.remove_sources * n + delta.remove_targets)
        last = np.unique(
            (delta.reweight_sources * n + delta.reweight_targets)[::-1], return_index=True
        )
        reweights = (last[0], delta.reweight_probs[::-1][last[1]])
        live = ~(removed[delta.add_sources] | removed[delta.add_targets])
        adds = (delta.add_sources[live], delta.add_targets[live], delta.add_probs[live])

        in_indptr, out_indptr = self.in_indptr, self.out_indptr
        if delta.add_nodes:
            grown = np.full(delta.add_nodes, self._m, dtype=np.int64)
            in_indptr = np.concatenate((in_indptr, grown))
            out_indptr = np.concatenate((out_indptr, grown))
        gone = delta.remove_nodes
        in_rows = np.unique(
            np.concatenate(
                (
                    delta.remove_targets,
                    delta.reweight_targets,
                    adds[1],
                    gone,
                    self.out_indices[_row_positions(out_indptr, gone)[0]],
                )
            )
        )
        out_rows = np.unique(
            np.concatenate(
                (
                    delta.remove_sources,
                    delta.reweight_sources,
                    adds[0],
                    gone,
                    self.in_indices[_row_positions(in_indptr, gone)[0]],
                )
            )
        )
        edits = (n, removed, dropped, reweights)
        in_adds = (adds[1], adds[0], adds[2])
        in_arrays, *found = _patch(
            (in_indptr, self.in_indices, self.in_probs), in_rows, True, edits, in_adds
        )
        for wanted, got in zip((dropped, reweights[0]), found):
            if got.size < wanted.size:
                u, v = divmod(int(np.setdiff1d(wanted, got)[0]), n)
                raise ValueError(f"edge <{u}, {v}> not in graph")
        out_arrays = _patch(
            (out_indptr, self.out_indices, self.out_probs), out_rows, False, edits, adds
        )[0]
        candidate = DirectedGraph._over(dict(zip(_CSR_FIELDS, (*out_arrays, *in_arrays))))
        if validate is not None:
            validate(candidate)
        self._adopt(candidate)
        self.version += 1
        return None if delta.add_nodes else in_rows

    def _in_entries(self, prob: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Keep the rank-stable in-rows: ``in_indices`` as they are, and
        each in-entry takes the probability of its out-entry, matched on
        the pair key ``source * n + target`` (parallel entries k-th to
        k-th, in row order)."""
        rows = np.arange(self._n, dtype=np.int64)
        out_keys = np.repeat(rows * self._n, np.diff(self.out_indptr)) + self.out_indices
        in_keys = self.in_indices.astype(np.int64) * self._n + np.repeat(
            rows, np.diff(self.in_indptr)
        )
        in_probs = _kept(self._m, np.float64)
        in_probs[np.argsort(in_keys, kind="stable")] = prob[
            np.argsort(out_keys, kind="stable")
        ]
        return self.in_indices, in_probs

    def compact(self) -> DirectedGraph:
        """A plain :class:`DirectedGraph` over the current arrays (no copy)."""
        return DirectedGraph._over({field: getattr(self, field) for field in _CSR_FIELDS})

    def __repr__(self) -> str:
        return f"VersionedGraph(n={self._n}, m={self._m}, version={self.version})"
