"""CSR-layout RR-set store: the exact per-machine store ``R_i``.

:class:`FlatRRCollection` keeps every RR set of a machine in two flat
arrays — one ``int32`` ``nodes`` array concatenating all set contents and
one ``int64`` ``offsets`` array delimiting them — exactly the layout the
CSR graph and the checkpoint format already use.  The inverted index
``I_i(v) = { j : v in R_{i,j} }`` — the lookup NEWGREEDI's map stage
makes per chosen seed — is itself stored in CSR form (``inv_sets`` /
``inv_offsets``), built in one shot by :func:`build_inverted_index`: one
in-place sort of packed ``(node, set id)`` keys plus an ``np.bincount``
prefix sum.  It is one of the two stores :func:`make_collection` builds;
the other is the HyperLogLog register bank of
:class:`~repro.coverage.sketch.SketchRRCollection`.

The collection grows append-mostly, one whole CSR batch at a time
(:meth:`FlatRRCollection.append_arrays`, with one ``edges_examined``
count per set): DIIMM grows ``R_i`` in waves, so batches are buffered
as given and folded into the forward arrays by one concatenation on the
next read; the inverted side is built by the first read that needs it
(selection, ``affected_sets``, ``coverage_of``), so a wave's coverage
ingest — which only counts nodes — never pays for it.  With ``W``
selection rounds over ``T`` total incidences that is ``W`` sorts of at
most ``T`` keys, once per round that grew and never per query: a
:class:`FlatPrefixView` cuts the rows of its store's index instead of
building its own.  Every read between waves hits pure NumPy arrays,
which is what lets :mod:`repro.coverage.kernel` run the greedy hot path
as fancy indexing instead of per-element Python loops.

Since the dynamic-graph work the store also *repairs* in place: when a
:class:`~repro.graphs.digraph.GraphDelta` lands, :meth:`affected_sets`
resolves which RR sets consulted a changed in-row (the node-keyed
inverted index doubles as the edge→RR-set index, because a reverse
traversal examines the in-rows of exactly the nodes it collects),
:meth:`replace_sets` splices their regenerated contents over the old
ones — set ids stay stable — and patches a built index for them rather
than re-sorting it.

Ordering invariants (relied on by the exactness tests):

* ``get(j)`` returns the ``j``-th RR set's nodes in their stored
  (sorted) order;
* ``sets_containing(v)`` returns element indices in ascending order —
  insertion order, since the set id is the low half of the sort key.
  Prefix views rely on it: the sets below a limit are a leading slice of
  every row.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .rrset import FlatBatch

__all__ = [
    "FlatRRCollection",
    "FlatPrefixView",
    "MAX_NODES",
    "append_batch",
    "build_inverted_index",
    "checked_batch",
    "make_collection",
    "gather_rows",
]

#: Largest graph the flat store can index: node ids are kept as ``int32``
#: (halving memory and wire traffic versus ``int64``), so ids must lie in
#: ``[0, 2**31)``.  Everything *per-collection* is already ``int64``
#: (offsets, inverted index), so set counts and total sizes are not
#: limited — only the node-id width is.
MAX_NODES = 1 << 31


def gather_rows(values: np.ndarray, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows ``values[offsets[r]:offsets[r+1]] for r in rows``.

    The standard vectorized multi-slice gather: repeat each row start over
    its length and add the within-row ramp.  Returns an empty array when
    ``rows`` is empty or all selected rows are.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return values[:0]
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    ends = lengths.cumsum()
    total = int(ends[-1])
    if total == 0:
        return values[:0]
    # Output slot p of row r reads values[starts[r] + p - (ends[r] - lengths[r])].
    index = (starts - ends + lengths).repeat(lengths)
    index += np.arange(total, dtype=np.int64)
    return values[index]


def checked_batch(
    nodes, offsets, edges_examined, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A CSR batch as a store takes it: ``int32`` nodes, ``int64`` offsets
    and one ``int64`` edge count per set.

    Raises :class:`ValueError` unless ``offsets`` runs from 0 to
    ``nodes.size``, every node id lies in ``[0, num_nodes)`` and
    ``edges_examined`` holds exactly one count per set (an aggregate is
    refused: no store can attribute it to its sets).
    """
    nodes = np.asarray(nodes)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != nodes.size:
        raise ValueError("offsets must start at 0 and end at nodes.size")
    if nodes.size and (int(nodes.min()) < 0 or int(nodes.max()) >= num_nodes):
        raise ValueError(f"RR set contains node ids outside [0, {num_nodes})")
    edges = np.asarray(edges_examined, dtype=np.int64)
    if edges.shape != (offsets.size - 1,):
        raise ValueError(
            f"edges_examined must hold one count per set: shape {edges.shape} "
            f"for {offsets.size - 1} sets"
        )
    return nodes.astype(np.int32, copy=False), offsets, edges


def _set_id_bits(num_nodes: int, num_sets: int) -> int:
    """Bits the set id takes in an index sort key; checks the key fits."""
    bits = max(num_sets - 1, 0).bit_length()
    if (num_nodes - 1).bit_length() + bits > 63:
        raise ValueError(
            f"cannot index {num_sets} RR sets over {num_nodes} nodes: the "
            "(node, set id) sort key must fit in 63 bits"
        )
    return bits


def build_inverted_index(
    nodes: np.ndarray, offsets: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR inverted index ``(inv_sets, inv_offsets)`` of a CSR set store.

    Sorts the keys ``node << bits | set_id`` in place and masks the set
    ids back out, so each node's row lists its sets in ascending id —
    the order a stable argsort of ``nodes`` gives — without the argsort's
    permutation array or a gather through it.
    """
    num_sets = offsets.size - 1
    bits = _set_id_bits(num_nodes, num_sets)
    inv_sets = np.repeat(np.arange(num_sets, dtype=np.int64), np.diff(offsets))
    inv_sets |= np.left_shift(nodes, bits, dtype=np.int64)
    inv_sets.sort()
    inv_sets &= (1 << bits) - 1
    inv_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=inv_offsets[1:])
    return inv_sets, inv_offsets


def _sorted_minus(keys: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The ``keys`` not in ``other``; both ascending and duplicate-free."""
    if other.size == 0:
        return keys
    at = other.searchsorted(keys).clip(max=other.size - 1)
    return keys[other[at] != keys]


class FlatRRCollection:
    """An RR-set store over flat CSR arrays: append-mostly, repairable.

    Implements the store read protocol (``num_nodes`` / ``num_sets`` /
    ``total_size`` / ``get`` / ``sets_containing`` / ``coverage_counts`` /
    ``coverage_of``) that :class:`FlatPrefixView` shares; the flat
    kernel additionally reads the raw arrays via :attr:`nodes`,
    :attr:`offsets`, :attr:`inv_sets` and :attr:`inv_offsets`.

    Mutation is whole-batch appends (:meth:`append_arrays`) plus the
    dynamic-graph repair surface: :meth:`replace_sets` rewrites chosen
    sets in place under stable ids.  In-place mutation invalidates
    any outstanding :class:`FlatPrefixView` over this store — build
    views after repairing, as the sample pool does.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        # Checked before any allocation: past this limit the int32 casts
        # in checked_batch would silently wrap node ids into negatives.
        if num_nodes > MAX_NODES:
            raise ValueError(
                f"num_nodes must be <= {MAX_NODES} (node ids are stored as "
                f"int32 in the flat CSR layout), got {num_nodes}"
            )
        self._num_nodes = num_nodes
        self._nodes = np.zeros(0, dtype=np.int32)
        self._offsets = np.zeros(1, dtype=np.int64)
        # ``_inv_sets`` is None from the moment appends are folded in
        # until a read that needs the inverted side rebuilds it.
        self._inv_sets = np.zeros(0, dtype=np.int64)
        self._inv_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        # Appended ``(nodes, offsets, edges)`` batches, until the next read
        # folds them in.
        self._pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Per-set edges-examined, and its prefix sum (entry j is the total
        # over the first j sets, so any prefix's generation work is one
        # lookup), derived from it by the first read after a write: a
        # repair's several writes pay for one.
        self._edges = np.zeros(0, dtype=np.int64)
        self._edges_cumsum: np.ndarray | None = None
        self._num_sets = 0
        self._total_size = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append_arrays(
        self,
        nodes: np.ndarray,
        offsets: np.ndarray,
        edges_examined: np.ndarray,
    ) -> None:
        """Append a whole flat batch (e.g. a worker's wave) in one call.

        ``edges_examined`` is the per-set ``int64`` array of length
        ``offsets.size - 1`` that
        :attr:`FlatBatch.edges_examined <repro.ris.rrset.FlatBatch>`
        carries (see :func:`checked_batch`).  The batch is kept as given
        until the next read folds it in.
        """
        nodes, offsets, edges = checked_batch(
            nodes, offsets, edges_examined, self._num_nodes
        )
        if edges.size:
            self._pending.append((nodes, offsets, edges))
            self._num_sets += edges.size
            self._total_size += int(nodes.size)

    def _materialize(self) -> None:
        """Fold pending batches into the forward CSR arrays: one
        concatenation each, every batch's offsets shifted to its start."""
        if not self._pending:
            return
        nodes, offsets, edges = [self._nodes], [self._offsets], [self._edges]
        end = self._offsets[-1]
        for batch_nodes, batch_offsets, batch_edges in self._pending:
            nodes.append(batch_nodes)
            offsets.append(batch_offsets[1:] + end)
            edges.append(batch_edges)
            end += batch_nodes.size
        self._nodes = np.concatenate(nodes)
        self._offsets = np.concatenate(offsets)
        self._edges = np.concatenate(edges)
        self._pending = []
        self._edges_cumsum = None
        self._inv_sets = None

    def _ensure_index(self) -> None:
        """Fold pending appends, then build ``I_i(v)`` if they outdated it."""
        self._materialize()
        if self._inv_sets is None:
            self._inv_sets, self._inv_offsets = build_inverted_index(
                self._nodes, self._offsets, self._num_nodes
            )

    # ------------------------------------------------------------------
    # Repair surface (dynamic graphs)
    # ------------------------------------------------------------------
    def affected_sets(self, touched) -> np.ndarray:
        """Element ids of RR sets whose traversal consulted a changed row.

        ``touched`` is what :meth:`VersionedGraph.apply
        <repro.graphs.digraph.VersionedGraph.apply>` returned: the
        ascending node ids whose in-rows changed, or ``None`` meaning
        every set.  A reverse traversal examines the in-rows of exactly
        the nodes it collects, so a set consulted a changed row iff it
        *contains* a touched node — the node-keyed inverted index is the
        edge→RR-set index.
        """
        self._ensure_index()
        if touched is None:
            return np.arange(self._num_sets, dtype=np.int64)
        touched = np.asarray(touched, dtype=np.int64)
        touched = touched[(touched >= 0) & (touched < self._num_nodes)]
        hits = gather_rows(self._inv_sets, self._inv_offsets, touched)
        return np.unique(hits)

    def replace_sets(self, set_ids, batch: FlatBatch) -> None:
        """Rewrite the contents of ``set_ids`` (ascending) in place.

        The ``pos``-th set of ``batch`` becomes the new content of
        ``set_ids[pos]``; ids and set count are unchanged, so seed sets
        and coverage element ids stay comparable across the repair.  A
        built inverted index is patched for the replaced ids
        (:meth:`_patch_index`), not rebuilt.  Outstanding prefix views
        over this store become stale — rebuild them afterwards.
        """
        self._materialize()
        ids = np.asarray(set_ids, dtype=np.int64)
        if ids.size == 0:
            if batch.count:
                raise ValueError(f"batch has {batch.count} sets for 0 ids")
            return
        if ids.size > 1 and np.any(np.diff(ids) <= 0):
            raise ValueError("set_ids must be strictly ascending")
        if int(ids[0]) < 0 or int(ids[-1]) >= self._num_sets:
            raise IndexError(f"set ids out of range [0, {self._num_sets})")
        if batch.count != ids.size:
            raise ValueError(f"batch has {batch.count} sets for {ids.size} ids")
        new_nodes, new_offsets, new_edges = checked_batch(
            batch.nodes, batch.offsets, batch.edges_examined, self._num_nodes
        )
        sizes = np.diff(self._offsets)
        old_sizes, new_sizes = sizes[ids], np.diff(new_offsets)
        old_nodes = gather_rows(self._nodes, self._offsets, ids)
        # Splice: alternate unchanged spans with the replacement rows.
        parts = []
        prev = 0
        for pos in range(ids.size):
            sid = int(ids[pos])
            parts.append(self._nodes[self._offsets[prev] : self._offsets[sid]])
            parts.append(new_nodes[new_offsets[pos] : new_offsets[pos + 1]])
            prev = sid + 1
        parts.append(self._nodes[self._offsets[prev] :])
        self._nodes = np.concatenate(parts)
        sizes[ids] = new_sizes
        self._offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._offsets[1:])
        self._total_size = int(self._offsets[-1])
        self.set_edges_examined(ids, new_edges)
        if self._inv_sets is not None:
            self._patch_index(ids, old_nodes, old_sizes, new_nodes, new_sizes)

    def _patch_index(
        self,
        ids: np.ndarray,
        old_nodes: np.ndarray,
        old_sizes: np.ndarray,
        new_nodes: np.ndarray,
        new_sizes: np.ndarray,
    ) -> None:
        """Patch ``I_i(v)`` for the sets ``ids`` (ascending), whose contents
        went from ``old_nodes`` to ``new_nodes`` (id-major, ``old_sizes`` /
        ``new_sizes`` per id): what :func:`build_inverted_index` of the new
        forward arrays returns, without its sort.

        Only the entries of a node a set lost or gained move — a redrawn
        set mostly keeps its nodes.  The index lists its entries in
        ascending ``node << bits | set id`` order (rows by node, each
        ascending in set id), so the rows those nodes own, gathered with
        their keys, place every such entry by one ``searchsorted``; they
        leave and enter in one ``np.delete`` / ``np.insert`` pass over the
        index, and each node's row bound moves by the count differences
        of the rows before it.
        """
        n = self._num_nodes
        bits = _set_id_bits(n, self._num_sets)
        old_keys = np.left_shift(old_nodes, bits, dtype=np.int64)
        old_keys |= ids.repeat(old_sizes)
        new_keys = np.left_shift(new_nodes, bits, dtype=np.int64)
        new_keys |= ids.repeat(new_sizes)
        old_keys.sort()
        new_keys.sort()
        gone, added = _sorted_minus(old_keys, new_keys), _sorted_minus(new_keys, old_keys)
        if gone.size == added.size == 0:
            return
        inv_sets, inv_offsets = self._inv_sets, self._inv_offsets
        rows = np.union1d(gone >> bits, added >> bits)
        lengths = inv_offsets[rows + 1] - inv_offsets[rows]
        keys = (rows << bits).repeat(lengths)
        keys |= gather_rows(inv_sets, inv_offsets, rows)
        # A key's place in the whole index: its place among the gathered
        # keys, moved from its row's gathered start to the row's start.
        shift = inv_offsets[rows] - lengths.cumsum() + lengths
        gone_at = keys.searchsorted(gone)
        gone_at += shift[rows.searchsorted(gone >> bits)]
        added_at = keys.searchsorted(added)
        added_at += shift[rows.searchsorted(added >> bits)]
        # A new entry goes before the old entries its key sorts below; the
        # insert positions count the entries deleted ahead of them.
        added_at -= gone_at.searchsorted(added_at)
        kept = np.delete(inv_sets, gone_at)
        self._inv_sets = np.insert(kept, added_at, added & ((1 << bits) - 1))
        # Each row bound moves by the entries gained less those lost
        # before it.
        moved = np.bincount(added >> bits, minlength=n) - np.bincount(gone >> bits, minlength=n)
        self._inv_offsets = inv_offsets.copy()
        self._inv_offsets[1:] += np.cumsum(moved)

    def set_edges_examined(self, set_ids, edges_examined) -> None:
        """Overwrite the per-set ``edges_examined`` of ``set_ids``.

        Contents and the inverted index are untouched: what a repair does
        to a set it keeps, whose traversal is unchanged but whose rows'
        in-degrees may have moved.  The prefix sums are re-derived by the
        next read that needs them, once however many writes came first.
        """
        self._materialize()
        self._edges[np.asarray(set_ids, dtype=np.int64)] = edges_examined
        self._edges_cumsum = None

    def nbytes(self) -> int:
        """Bytes held by the materialized CSR arrays, index included.

        The inverted side is sized by what it will hold (one ``int64``
        per incidence, ``num_nodes + 1`` offsets), so asking never
        forces a build.
        """
        self._materialize()
        return int(
            self._nodes.nbytes
            + self._offsets.nbytes
            + 8 * (self._nodes.size + self._num_nodes + 1)
            + 8 * (self._num_sets + 1)  # the edges-examined prefix sums
        )

    # ------------------------------------------------------------------
    # Raw CSR access (the kernel's view)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> np.ndarray:
        """Flat ``int32`` concatenation of every RR set's nodes."""
        self._materialize()
        return self._nodes

    @property
    def offsets(self) -> np.ndarray:
        """``int64`` array of length ``num_sets + 1`` delimiting the sets."""
        self._materialize()
        return self._offsets

    @property
    def inv_sets(self) -> np.ndarray:
        """Element ids of the CSR inverted index, grouped by node."""
        self._ensure_index()
        return self._inv_sets

    @property
    def inv_offsets(self) -> np.ndarray:
        """``int64`` array of length ``num_nodes + 1`` delimiting ``I_i(v)``."""
        self._ensure_index()
        return self._inv_offsets

    # ------------------------------------------------------------------
    # Store protocol
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_sets(self) -> int:
        """Number of RR sets stored (``|R_i|``)."""
        return self._num_sets

    @property
    def total_size(self) -> int:
        """Sum of RR-set sizes (drives NEWGREEDI's per-machine work)."""
        return self._total_size

    @property
    def total_edges_examined(self) -> int:
        """Sum of ``w(R)`` over stored sets (drives generation time)."""
        return self.edges_examined_upto(self._num_sets)

    @property
    def edges_examined(self) -> np.ndarray:
        """Per-set ``w(R)``, in set order (do not mutate)."""
        self._materialize()
        return self._edges

    def edges_examined_upto(self, limit: int) -> int:
        """Edges examined generating the first ``limit`` RR sets."""
        self._materialize()
        if not 0 <= limit <= self._num_sets:
            raise ValueError(f"limit {limit} out of range [0, {self._num_sets}]")
        if self._edges_cumsum is None:
            self._edges_cumsum = np.zeros(self._num_sets + 1, dtype=np.int64)
            np.cumsum(self._edges, out=self._edges_cumsum[1:])
        return int(self._edges_cumsum[limit])

    def get(self, idx: int) -> np.ndarray:
        """Node array (a view) of the ``idx``-th RR set."""
        self._materialize()
        if idx < 0:
            idx += self._num_sets
        if not 0 <= idx < self._num_sets:
            raise IndexError(f"set index {idx} out of range")
        return self._nodes[self._offsets[idx] : self._offsets[idx + 1]]

    def __len__(self) -> int:
        return self._num_sets

    def __iter__(self) -> Iterator[np.ndarray]:
        self._materialize()
        for idx in range(self._num_sets):
            yield self._nodes[self._offsets[idx] : self._offsets[idx + 1]]

    def sets_containing(self, node: int) -> np.ndarray:
        """Ascending element ids of RR sets containing ``node`` (``I_i(node)``)."""
        self._ensure_index()
        node = int(node)
        if not 0 <= node < self._num_nodes:
            return self._inv_sets[:0]
        return self._inv_sets[self._inv_offsets[node] : self._inv_offsets[node + 1]]

    def coverage_counts(self, start: int = 0) -> np.ndarray:
        """Per-node count of RR sets (with index >= ``start``) containing it."""
        self._materialize()
        lo = self._offsets[min(start, self._num_sets)]
        counts = np.bincount(self._nodes[lo:], minlength=self._num_nodes)
        return counts.astype(np.int64, copy=False)

    def coverage_of(self, seeds: Iterable[int]) -> int:
        """Number of stored RR sets covered by the seed set."""
        return _count_covered(self, seeds, self._num_sets)

    def __repr__(self) -> str:
        return (
            f"FlatRRCollection(num_sets={self._num_sets}, "
            f"total_size={self._total_size}, num_nodes={self._num_nodes})"
        )


def _count_covered(store: FlatRRCollection, seeds: Iterable[int], limit: int) -> int:
    """How many of ``store``'s first ``limit`` sets contain a seed."""
    seeds = np.unique(np.fromiter((int(s) for s in seeds), dtype=np.int64))
    seeds = seeds[(seeds >= 0) & (seeds < store.num_nodes)]
    elements = gather_rows(store.inv_sets, store.inv_offsets, seeds)
    return int(np.unique(elements[elements < limit]).size)


class FlatPrefixView:
    """A read-only view of the first ``limit`` RR sets of a flat store.

    The warm-serving path (:mod:`repro.core.pool`) keeps one long-lived
    :class:`FlatRRCollection` per machine and answers each query against
    a *prefix* of it: because the per-set samplers' batch contract makes
    machine ``i``'s first ``c`` RR sets depend only on its RNG stream and
    ``c`` — never on how generation was batched into waves — the prefix
    is bit-identical to the collection a cold run of the same schedule
    would have built, and so is everything selected from it.

    The view implements the full store read protocol plus the forward
    arrays the flat coverage kernel gathers from (:attr:`nodes`,
    :attr:`offsets`), so greedy selection and NEWGREEDI run on a view
    unchanged.  Both are zero-copy slices, and the view owns no inverted
    index: every row of the store's ``I_i(v)`` is ascending in set id, so
    the sets below the limit are the row cut at
    ``searchsorted(row, limit)``.  A query over a pool that did not grow
    therefore sorts nothing; one that did pays the store's single
    rebuild, shared by every later query.

    Limits only grow (:meth:`set_limit`), matching the store's
    append-mostly growth, and must never exceed the backing store's
    current size — the pool tops the store up *before* advancing any
    view.  After :meth:`FlatRRCollection.replace_sets` the view reads
    the repaired contents — not the snapshot a query started on — so
    repair-capable callers (the sample pool) build a fresh view per
    query and never hold one across an update.
    """

    def __init__(self, store: FlatRRCollection, limit: int = 0) -> None:
        self._store = store
        self._limit = 0
        self.set_limit(limit)

    @property
    def base(self) -> FlatRRCollection:
        """The backing (shared, append-only) collection."""
        return self._store

    @property
    def limit(self) -> int:
        return self._limit

    def set_limit(self, limit: int) -> None:
        """Advance the view to cover the first ``limit`` sets."""
        limit = int(limit)
        if limit < self._limit:
            raise ValueError(
                f"prefix views only grow: limit {limit} < current {self._limit}"
            )
        if limit > self._store.num_sets:
            raise ValueError(
                f"limit {limit} exceeds the backing store's "
                f"{self._store.num_sets} sets; top the pool up first"
            )
        self._limit = limit

    # -- raw CSR access (the kernel's view) -----------------------------
    @property
    def nodes(self) -> np.ndarray:
        return self._store.nodes[: self._store.offsets[self._limit]]

    @property
    def offsets(self) -> np.ndarray:
        return self._store.offsets[: self._limit + 1]

    # -- store protocol -------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._store.num_nodes

    @property
    def num_sets(self) -> int:
        return self._limit

    @property
    def total_size(self) -> int:
        return int(self._store.offsets[self._limit])

    @property
    def total_edges_examined(self) -> int:
        return self._store.edges_examined_upto(self._limit)

    def get(self, idx: int) -> np.ndarray:
        if idx < 0:
            idx += self._limit
        if not 0 <= idx < self._limit:
            raise IndexError(f"set index {idx} out of range")
        return self._store.get(idx)

    def __len__(self) -> int:
        return self._limit

    def __iter__(self) -> Iterator[np.ndarray]:
        for idx in range(self._limit):
            yield self._store.get(idx)

    def sets_containing(self, node: int) -> np.ndarray:
        row = self._store.sets_containing(node)
        return row[: np.searchsorted(row, self._limit)]

    def coverage_counts(self, start: int = 0) -> np.ndarray:
        offsets = self._store.offsets
        lo = offsets[min(start, self._limit)]
        hi = offsets[self._limit]
        counts = np.bincount(self._store.nodes[lo:hi], minlength=self._store.num_nodes)
        return counts.astype(np.int64, copy=False)

    def coverage_of(self, seeds: Iterable[int]) -> int:
        return _count_covered(self._store, seeds, self._limit)

    def __repr__(self) -> str:
        return (
            f"FlatPrefixView(limit={self._limit}, "
            f"store_sets={self._store.num_sets}, num_nodes={self.num_nodes})"
        )


def make_collection(
    num_nodes: int,
    backend: str = "flat",
    *,
    machine_id: int = 0,
    sketch_precision: int = 10,
):
    """Factory for a per-machine RR store: ``"flat"`` or ``"sketch"``.

    ``"flat"`` is the exact :class:`FlatRRCollection`; ``"sketch"`` the
    HyperLogLog register bank.  ``machine_id`` and ``sketch_precision``
    only matter to the sketch: the id offsets the global set-id hash
    space so collections on different machines never collide, and the
    precision sets the per-node register count ``m = 2**sketch_precision``.
    """
    if backend == "flat":
        return FlatRRCollection(num_nodes)
    if backend == "sketch":
        # Imported lazily: repro.coverage imports repro.ris at package
        # init, so a module-level import here would be circular.
        from ..coverage.sketch import SketchRRCollection

        return SketchRRCollection(
            num_nodes, precision=sketch_precision, machine_id=machine_id
        )
    raise ValueError(f"unknown collection backend {backend!r}")


def append_batch(collection, batch: FlatBatch) -> None:
    """Append a sampler's :class:`~repro.ris.rrset.FlatBatch` to either
    store through its one way in, ``append_arrays``."""
    collection.append_arrays(batch.nodes, batch.offsets, batch.edges_examined)
