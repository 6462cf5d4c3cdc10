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
* :func:`reference_restricted_greedy` — GREEDI's per-partition greedy;
* :func:`reference_budgeted` / :func:`reference_profit` — the budgeted and
  profit pick rules as ``heapq`` lazy greedies that re-file each stale
  entry with its fresh ratio or gain (what the applications rank with
  :class:`~repro.coverage.greedy.BucketQueue` instead);
* :func:`reference_exact_spread_ic` / :func:`reference_exact_spread_lt` /
  :func:`reference_exact_optimum` — the exact spread, one live-edge world
  at a time (a Python loop over edge masks or triggering choices, a BFS
  per world), and the brute-force optimum calling it once per candidate
  set: what :mod:`repro.diffusion.exact` enumerates once, vectorized.
* :func:`reference_sketch_lazy_greedy` — the sketch greedy's guard loop:
  the best ``guard`` gains re-ranked by (−gain, lowest id) on every pass,
  one dense ``hll_estimate`` per stale row (what
  :func:`repro.coverage.sketch.sketch_lazy_greedy` walks in one order per
  step, with batched incremental estimates);
* :func:`reference_varint_sizes` / :func:`reference_encode_varints` /
  :func:`reference_decode_varints` — the LEB128 wire codec byte by byte:
  a ``searchsorted`` size per value, one masked pass over every value per
  byte position, and per-byte contributions summed by ``np.add.reduceat``
  (what :mod:`repro.ris.wire` does per value instead).

None of it shares code with :mod:`repro.coverage.kernel`,
:func:`repro.ris.flat.build_inverted_index` or the codec's size, encode
and decode loops.  :func:`reference_engine`
swaps these loops into the engines' modules in place of the kernel, so the
protocol code around them — the bucket queue, the phase records, the
priced replies — runs unchanged over the oracle's per-element work; the
``reference_*`` wrappers are the engines run that way.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager, nullcontext
from importlib import import_module
from typing import Callable, Dict, Iterable, Iterator, List, Sequence

import numpy as np
import pytest

from repro.coverage import greedi, greedy_max_coverage, newgreedi
from repro.coverage.greedy import BucketQueue, GreedyResult, _pad_with_unselected
from repro.coverage.sketch import estimate_bank_degrees, hll_estimate
from repro.diffusion.base import seeds_to_array
from repro.diffusion.lt import check_lt_feasible
from repro.diffusion.triggering import reachable_from
from repro.ris.flat import FlatRRCollection
from repro.ris.rrset import RRSample
from repro.ris.serialization import PayloadCorruptionError
from repro.ris.wire import MAX_VARINT_BYTES

__all__ = [
    "STORES",
    "RRCollection",
    "engine",
    "reference_budgeted",
    "reference_decrements",
    "reference_engine",
    "reference_exact_optimum",
    "reference_exact_spread_ic",
    "reference_exact_spread_lt",
    "reference_greedi",
    "reference_greedy",
    "reference_mark_and_decrement",
    "reference_newgreedi",
    "reference_profit",
    "reference_restricted_greedy",
    "reference_sketch_lazy_greedy",
    "reference_decode_varints",
    "reference_encode_varints",
    "reference_varint_sizes",
]


class RRCollection:
    """An append-only collection of RR sets plus its dict inverted index.

    Implements the RR-store read protocol (``num_nodes`` / ``num_sets`` /
    ``total_size`` / ``total_edges_examined`` / ``get`` /
    ``sets_containing`` / ``coverage_counts`` / ``coverage_of``) and both
    append forms — per set (:meth:`add`, the oracle's own) and per batch
    (:meth:`append_arrays`, set by set) — so executors can grow it like a
    flat store.
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


def reference_budgeted(
    counts: np.ndarray, costs: np.ndarray, budget: float, select: Callable[[int], object]
) -> List[int]:
    """Budgeted IM's pick rule as a max-heap on ``Delta(v) / c(v)``.

    A stale top is re-pushed with its fresh ratio; an unaffordable or
    exhausted pop is dropped.  ``select(node)`` runs the node's round,
    decrementing ``counts`` in place.  Returns the seeds in pick order.
    """
    heap = [
        (-counts[v] / costs[v], v)
        for v in range(counts.size)
        if counts[v] > 0 and costs[v] <= budget
    ]
    heapq.heapify(heap)
    recorded = {v: int(counts[v]) for __, v in heap}
    seeds: List[int] = []
    remaining = float(budget)
    while heap:
        __, candidate = heapq.heappop(heap)
        if candidate in seeds or costs[candidate] > remaining:
            continue
        current = int(counts[candidate])
        if current <= 0:
            continue
        if current < recorded[candidate]:
            recorded[candidate] = current
            heapq.heappush(heap, (-current / costs[candidate], candidate))
            continue
        seeds.append(candidate)
        remaining -= float(costs[candidate])
        select(candidate)
    return seeds


def reference_profit(
    counts: np.ndarray,
    costs: np.ndarray,
    spread_per_element: float,
    select: Callable[[int], object],
) -> List[int]:
    """Profit maximization's pick rule as a max-heap on
    ``Delta(v) * n/theta - c(v)``, stopping once no gain is positive.

    ``select(node)`` runs the node's round, decrementing ``counts`` in
    place.  Returns the seeds in pick order.
    """

    def gain_of(node: int) -> float:
        return float(counts[node]) * spread_per_element - float(costs[node])

    heap = [(-gain_of(v), v) for v in range(counts.size) if gain_of(v) > 0]
    heapq.heapify(heap)
    recorded = {v: -g for g, v in heap}
    seeds: List[int] = []
    while heap:
        __, candidate = heapq.heappop(heap)
        fresh = gain_of(candidate)
        if fresh <= 0:
            continue
        if fresh < recorded[candidate] - 1e-12:
            recorded[candidate] = fresh
            heapq.heappush(heap, (-fresh, candidate))
            continue
        seeds.append(candidate)
        select(candidate)
    return seeds


def _unchanged(store):
    return store


@contextmanager
def reference_engine():
    """Run the coverage engines on the per-element loops above.

    Inside the block ``greedy_max_coverage``, ``greedi`` / ``randgreedi``,
    ``newgreedi`` and :class:`~repro.coverage.newgreedi.NewGreeDiRounds`
    read their stores through the store protocol alone (no
    :class:`~repro.coverage.kernel.FlatArrays`), so they take this
    module's :class:`RRCollection`, and do their per-element work with
    this module's loops.
    """
    # The package re-exports functions under their submodules' names.
    greedy_module, greedi_module, newgreedi_module = (
        import_module(f"repro.coverage.{name}") for name in ("greedy", "greedi", "newgreedi")
    )
    with pytest.MonkeyPatch.context() as patch:
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


def reference_newgreedi(executor, k: int, stores, **options):
    """``newgreedi`` with the dict map stage on every machine."""
    with reference_engine():
        return newgreedi(executor, k, stores=stores, **options)


def reference_greedi(executor, instance, k: int, **options):
    """``greedi`` with the per-element restricted greedy."""
    with reference_engine():
        return greedi(executor, instance, k, **options)


def reference_sketch_lazy_greedy(
    bank, k: int, num_elements: int, guard: int = 8, degrees=None
) -> GreedyResult:
    """The sketch greedy as a guard loop, one stale row at a time.

    Every pass ranks the live candidates by (−gain, lowest id), takes the
    best ``guard``, and re-estimates the stale ones against the current
    union with one ``hll_estimate(np.maximum(union, row))`` each; the step
    picks the best candidate once a pass finds none stale.
    """
    n = bank.shape[0]
    if degrees is None:
        gains = estimate_bank_degrees(bank)
    else:
        gains = np.array(degrees, dtype=np.float64)
    stamps = np.full(n, -1, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    current = np.zeros(bank.shape[1], dtype=np.uint8)
    current_est = 0.0
    union_ests: Dict[int, float] = {}
    seeds: List[int] = []
    marginals: List[float] = []
    for step in range(min(k, n)):
        while True:
            candidates = np.flatnonzero(live)
            top = candidates[np.lexsort((candidates, -gains[candidates]))[:guard]]
            stale = top[stamps[top] != step]
            if not stale.size:
                break
            for u in stale.tolist():
                union_ests[u] = hll_estimate(np.maximum(current, bank[u]))
                gains[u] = max(union_ests[u] - current_est, 0.0)
                stamps[u] = step
        v = int(top[0])
        seeds.append(v)
        marginals.append(float(gains[v]))
        live[v] = False
        np.maximum(current, bank[v], out=current)
        current_est = max(current_est, union_ests[v])
    coverage = float(min(current_est, float(num_elements)))
    _pad_with_unselected(seeds, k, n)
    return GreedyResult(seeds, coverage, num_elements, marginals)


#: The shipped store and the oracle's, for tests parametrized over both.
STORES = {"flat": FlatRRCollection, "reference": RRCollection}


# ----------------------------------------------------------------------
# Exact spread, one world at a time
# ----------------------------------------------------------------------
def reference_exact_spread_ic(graph, seeds: Iterable[int]) -> float:
    """Exact IC ``sigma(seeds)``: every edge subset, one BFS each."""
    m = graph.num_edges
    seed_arr = seeds_to_array(seeds, graph.num_nodes)
    sources, targets, probs = graph.edge_arrays()
    total = 0.0
    for mask in range(1 << m):
        live = np.array([(mask >> e) & 1 for e in range(m)], dtype=bool)
        prob = float(np.prod(np.where(live, probs, 1.0 - probs)))
        if prob == 0.0:
            continue
        reach = reachable_from(graph.num_nodes, sources[live], targets[live], seed_arr)
        total += prob * reach.size
    return total


def reference_exact_spread_lt(graph, seeds: Iterable[int]) -> float:
    """Exact LT ``sigma(seeds)``: every combination of per-node in-edge
    choices (one live in-edge or none), one BFS each."""
    check_lt_feasible(graph)
    seed_arr = seeds_to_array(seeds, graph.num_nodes)
    n = graph.num_nodes
    per_node_options = []
    for v in range(n):
        in_probs = graph.in_probabilities(v)
        options = [(int(u), float(p)) for u, p in zip(graph.in_neighbors(v), in_probs)]
        slack = 1.0 - float(in_probs.sum())
        if slack > 1e-12 or not options:
            options.append((None, max(slack, 0.0) if options else 1.0))
        per_node_options.append(options)
    total = 0.0
    for combo in itertools.product(*per_node_options):
        prob = 1.0
        sources: List[int] = []
        targets: List[int] = []
        for v, (u, p) in enumerate(combo):
            prob *= p
            if u is not None:
                sources.append(u)
                targets.append(v)
        if prob == 0.0:
            continue
        reach = reachable_from(
            n, np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64), seed_arr
        )
        total += prob * reach.size
    return total


def reference_exact_optimum(graph, k: int, model: str = "ic", candidates=None):
    """Brute force: the reference spread of every size-``k`` candidate set."""
    pool = list(candidates) if candidates is not None else list(range(graph.num_nodes))
    spread = reference_exact_spread_ic if model == "ic" else reference_exact_spread_lt
    best_set, best_value = (), -1.0
    for combo in itertools.combinations(pool, min(k, len(pool))):
        value = spread(graph, combo)
        if value > best_value:
            best_set, best_value = combo, value
    return best_set, best_value


# ---------------------------------------------------------------------------
# The LEB128 wire codec, per byte
# ---------------------------------------------------------------------------
#: A value needs ``k+1`` bytes when it is >= 2**(7k).
_SIZE_THRESHOLDS = np.power(
    np.uint64(2), np.uint64(7) * np.arange(1, MAX_VARINT_BYTES, dtype=np.uint64)
)


def reference_varint_sizes(values) -> np.ndarray:
    """Encoded byte length of each value, by binary search."""
    values = np.asarray(values, dtype=np.uint64)
    return np.searchsorted(_SIZE_THRESHOLDS, values, side="right").astype(np.int64) + 1


def reference_encode_varints(values) -> bytes:
    """LEB128 stream: one masked pass over every value per byte position."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    sizes = reference_varint_sizes(values)
    starts = np.zeros(values.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    out = np.empty(starts[-1] + sizes[-1], dtype=np.uint8)
    for position in range(MAX_VARINT_BYTES):
        mask = sizes > position
        if not mask.any():
            break
        chunk = (values[mask] >> (np.uint64(7) * np.uint64(position))) & np.uint64(0x7F)
        continuation = (sizes[mask] > position + 1).astype(np.uint8) << 7
        out[starts[mask] + position] = chunk.astype(np.uint8) | continuation
    return out.tobytes()


def reference_decode_varints(data) -> np.ndarray:
    """Invert :func:`reference_encode_varints`: every byte's 7 bits shifted
    to its place in its value, summed per value."""
    raw = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else data
    if raw.size == 0:
        return np.zeros(0, dtype=np.uint64)
    terminators = raw < 0x80
    if not terminators[-1]:
        raise PayloadCorruptionError(
            "varint stream truncated: final byte still has its continuation bit set"
        )
    ends = np.nonzero(terminators)[0]
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > MAX_VARINT_BYTES:
        raise PayloadCorruptionError(
            f"varint stream corrupt: value spans {int(lengths.max())} bytes "
            f"(maximum is {MAX_VARINT_BYTES})"
        )
    positions = (np.arange(raw.size, dtype=np.int64) - np.repeat(starts, lengths)).astype(
        np.uint64
    )
    contributions = (raw & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * positions)
    return np.add.reduceat(contributions, starts)
