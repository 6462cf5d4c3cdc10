"""Reverse-reachable (RR) set sample container and sampler interface.

Definition 1 of the paper: a random RR set ``R`` is generated by picking a
uniform random root ``v``, sampling a live-edge graph ``g`` according to
the diffusion model, and taking all nodes that can reach ``v`` in ``g``.

A sample carries, besides the node set, the number of edges the sampler
examined while constructing it — the quantity ``w(R)`` whose expectation
EPT drives the paper's generation-time analysis (Section III-D).

Every executor, pool and service draws through :func:`sample_set_range`:
set ``i`` of collection ``key`` on machine ``m`` is a pure function of
``(seed, key, m, i)`` and the graph.  The coordinates reach the sampler as
one 64-bit *set key* per set (:func:`set_keys`), from which the keyed
kernels of :mod:`repro.ris.vectorized` (and the targeted wrapper over
them) derive the root and every coin by hashing — the kernels' "RNG
contract".  No generator is made on that path.

Samplers also expose the sequential-stream interfaces
:meth:`RRSampler.sample` (one :class:`RRSample`) and
:meth:`RRSampler.sample_batch` (many sets from one generator into one
:class:`FlatBatch`).  A batch is *bit-identical* to the corresponding
sequence of :meth:`sample` calls under the same RNG stream
(``tests/ris/test_batch_samplers.py``): batching is a representation and
speed change, never a distribution change.  The scalar references —
SUBSIM's subset sampler, the arbitrary-distribution triggering sampler
and the per-set IC/LT loops — draw only that way, from a generator, never
through :func:`sample_set_range`.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..graphs.digraph import DirectedGraph

__all__ = [
    "FlatBatch",
    "RRSample",
    "RRSampler",
    "concat_batches",
    "pack_samples",
    "sample_set_range",
    "set_keys",
    "splitmix64",
    "uniform_rows",
]


#: splitmix64's state increment, ``2**64`` over the golden ratio (odd).
GOLDEN = 0x9E3779B97F4A7C15


def concat_batches(batches: Sequence[FlatBatch]) -> FlatBatch:
    """Concatenate flat batches preserving set order."""
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return FlatBatch(
            np.zeros(0, dtype=np.int32),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    counts = [batch.count for batch in batches]
    offsets = np.zeros(sum(counts) + 1, dtype=np.int64)
    cursor = 0
    base = 0
    for batch in batches:
        span = batch.count
        offsets[cursor + 1 : cursor + span + 1] = batch.offsets[1:] + base
        base += int(batch.offsets[-1])
        cursor += span
    return FlatBatch(
        np.concatenate([batch.nodes for batch in batches]),
        offsets,
        np.concatenate([batch.roots for batch in batches]),
        np.concatenate([batch.edges_examined for batch in batches]),
    )


def splitmix64(values) -> np.ndarray:
    """The splitmix64 output for each ``uint64`` state in ``values``.

    A full-period bijection on 64-bit integers (the state is advanced by
    :data:`GOLDEN`, then finalized) whose output over sequential states
    passes BigCrush — the standard cheap stand-in for a random hash of
    sequential ids.  Returns a new array.
    """
    z = np.array(values, dtype=np.uint64)
    z += np.uint64(GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def set_keys(seed: int, machine_id: int, ids, key: str = "main") -> np.ndarray:
    """The 64-bit keys of the RR sets ``ids`` of collection ``key`` on one machine.

    Set ``i``'s key is output ``i`` of the splitmix64 stream whose state
    starts at a hash of ``(seed, crc32(key), machine_id)`` —
    ``SeedSequence(seed, spawn_key=(crc32(key), machine_id))``'s first
    64-bit word — so keys are position-free: any subset of ids, in any
    order, gets the same keys.
    """
    spawn_key = (zlib.crc32(key.encode()), machine_id)
    base = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(1, np.uint64)
    ids = np.asarray(ids, dtype=np.int64)
    return splitmix64(ids.astype(np.uint64) * np.uint64(GOLDEN) + base)


def sample_set_range(
    sampler: "RRSampler", seed: int, machine_id: int, ids, key: str = "main"
) -> FlatBatch:
    """Draw the RR sets ``ids`` of collection ``key`` on one machine.

    ``ids`` is any integer sequence: a ``range`` when a collection grows,
    the scattered ``affected_sets`` when it is repaired.  Set ``i``'s bytes
    depend only on ``(seed, key, machine_id, i)`` and the graph, so a
    retry, a resume, a top-up or a repair of set ``i`` reads the same coins
    with no state carried.  The sampler gets every set's :func:`set_keys`
    key in one ``sample_keys`` call and draws them at its own block width;
    it must be keyed (the kernels ``make_sampler`` returns, or a
    :class:`~repro.applications.targeted.TargetedSampler` over one).
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and int(ids.min()) < 0:
        raise ValueError(f"set ids must be >= 0, got {int(ids.min())}")
    return sampler.sample_keys(set_keys(seed, machine_id, ids, key))


def uniform_rows(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per CSR row: is it non-empty with all its ``values`` equal?"""
    uniform = np.zeros(indptr.size - 1, dtype=bool)
    rows = np.flatnonzero(np.diff(indptr))
    if rows.size:
        # Empty rows own no entries, so the non-empty rows' starts tile
        # ``values`` exactly and each reduceat segment is one row.
        starts = indptr[rows]
        uniform[rows] = np.minimum.reduceat(values, starts) == np.maximum.reduceat(
            values, starts
        )
    return uniform


class FlatBatch(NamedTuple):
    """A batch of RR sets in flat CSR layout.

    Attributes
    ----------
    nodes:
        ``int32`` concatenation of every set's sorted node ids.
    offsets:
        ``int64`` array of length ``count + 1`` delimiting the sets.
    roots:
        ``int64`` root node per set.
    edges_examined:
        ``int64`` count of edges inspected per set (``w(R)``).
    """

    nodes: np.ndarray
    offsets: np.ndarray
    roots: np.ndarray
    edges_examined: np.ndarray

    @property
    def count(self) -> int:
        return int(self.offsets.size - 1)


def pack_samples(samples: Sequence["RRSample"]) -> FlatBatch:
    """Concatenate per-set samples into the flat CSR batch layout."""
    count = len(samples)
    sizes = np.fromiter((s.nodes.size for s in samples), dtype=np.int64, count=count)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if count:
        nodes = np.concatenate([s.nodes for s in samples]).astype(np.int32, copy=False)
    else:
        nodes = np.zeros(0, dtype=np.int32)
    roots = np.fromiter((s.root for s in samples), dtype=np.int64, count=count)
    edges = np.fromiter((s.edges_examined for s in samples), dtype=np.int64, count=count)
    return FlatBatch(nodes, offsets, roots, edges)


def pack_segments(parts: Sequence[np.ndarray], roots: Sequence[int], edges) -> FlatBatch:
    """The flat batch of per-set sorted ``int32`` node segments."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, parts), np.int64, len(parts)), out=offsets[1:])
    nodes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)
    return FlatBatch(
        nodes, offsets, np.asarray(roots, dtype=np.int64), np.asarray(edges, dtype=np.int64)
    )


@dataclass(frozen=True)
class RRSample:
    """One random RR set.

    Attributes
    ----------
    nodes:
        Sorted unique node ids in the RR set (always includes the root).
    root:
        The uniformly sampled root node ``v``.
    edges_examined:
        Number of incoming edges inspected during generation, ``w(R)``.
    """

    nodes: np.ndarray
    root: int
    edges_examined: int

    def __len__(self) -> int:
        return int(self.nodes.size)

    def __contains__(self, node: int) -> bool:
        idx = np.searchsorted(self.nodes, node)
        return bool(idx < self.nodes.size and self.nodes[idx] == node)


class RRSampler(ABC):
    """Generates random RR sets for a fixed graph.

    Samplers precompute whatever per-graph structure they need at
    construction (e.g. SUBSIM's per-node maximum probabilities) and are
    then called once per RR set with an explicit ``rng``.
    """

    def __init__(self, graph: DirectedGraph) -> None:
        if graph.num_nodes == 0:
            raise ValueError("cannot sample RR sets from an empty graph")
        self.graph = graph

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> RRSample:
        """Draw one random RR set."""

    def sample_root(self, rng: np.random.Generator) -> int:
        """Pick the uniform random root node."""
        return int(rng.integers(0, self.graph.num_nodes))

    def sample_many(self, count: int, rng: np.random.Generator) -> list[RRSample]:
        """Draw ``count`` independent RR sets."""
        return [self.sample(rng) for _ in range(count)]

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` RR sets from one stream into flat CSR arrays.

        Bit-identical to ``pack_samples(sample_many(count, rng))``, which
        is what this base implementation runs; a sampler may override it
        with a loop that draws the same without the :class:`RRSample`
        objects.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return pack_samples(self.sample_many(count, rng))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"
