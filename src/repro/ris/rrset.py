"""Reverse-reachable (RR) set sample container and sampler interface.

Definition 1 of the paper: a random RR set ``R`` is generated by picking a
uniform random root ``v``, sampling a live-edge graph ``g`` according to
the diffusion model, and taking all nodes that can reach ``v`` in ``g``.

A sample carries, besides the node set, the number of edges the sampler
examined while constructing it — the quantity ``w(R)`` whose expectation
EPT drives the paper's generation-time analysis (Section III-D).

Samplers expose three drawing interfaces:

* :meth:`RRSampler.sample` — one :class:`RRSample` object per call, the
  per-set representation;
* :meth:`RRSampler.sample_batch` — many RR sets per call from one
  sequential stream, returned as one :class:`FlatBatch` of CSR arrays
  ready for :meth:`~repro.ris.flat.FlatRRCollection.append_arrays`.  The
  contract, enforced by ``tests/ris/test_batch_samplers.py``, is that a
  batch is *bit-identical* to the corresponding sequence of :meth:`sample`
  calls under the same RNG stream — batching is purely a representation
  and speed change, never a distribution change;
* :meth:`RRSampler.sample_sets` — one RR set per generator, how every
  executor, pool and service draws: :func:`sample_set_range` makes set ``i``
  of collection ``key`` on machine ``m`` a function of ``(seed, key, m, i)``.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from ..graphs.digraph import DirectedGraph

__all__ = [
    "PER_SET_BLOCK",
    "FlatBatch",
    "RRSample",
    "RRSampler",
    "concat_batches",
    "pack_samples",
    "sample_set_range",
    "uniform_rows",
]


#: Sets per ``sample_sets`` call under :func:`sample_set_range`, hence the
#: IC kernel's block there.  Each set pays its own seat, root draw and
#: per-wave coin fill, so 128 sets draw within ~20% of the vectorized
#: method's 1024 at an eighth of the visited scratch services hold per pool.
PER_SET_BLOCK = 128


#: The stride of ``numpy.random.PCG64.jumped`` (``2**128`` over the golden
#: ratio, odd): set ``i``'s generator sits ``i`` strides into its base
#: stream.  Not ``i << 64``: LCG states a power of two apart share their
#: low bits, and consecutive sets' roots come out far from uniform (chi-square
#: ~60x its degrees of freedom over 2*10**5 sets, ``tests/ris/test_coordinates.py``).
PCG64_JUMP = 210306068529402873165736369884012333109
_MASK128 = (1 << 128) - 1


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


def sample_set_range(
    sampler: "RRSampler", seed: int, machine_id: int, ids, key: str = "main"
) -> FlatBatch:
    """Draw the RR sets ``ids`` of collection ``key`` on one machine.

    The one place coordinates become generators: set ``i`` is drawn from
    the ``(seed, key, machine_id)`` base stream — ``PCG64`` over
    ``SeedSequence(seed, spawn_key=(crc32(key), machine_id))``, built once
    per call — jumped ``i`` times (``PCG64.jumped(i)``, in place), so a
    retry, a resume, a top-up or a repair of set ``i`` reads the same coins
    with no state carried.  ``ids`` is any integer sequence: a ``range`` when
    a collection grows, the scattered ``affected_sets`` when it is repaired.

    Samplers with ``per_set_source`` get one generator per set
    (:meth:`RRSampler.sample_sets`): set ``i``'s bytes depend only on its
    coordinates and the graph.  The generators are a ring of
    :data:`PER_SET_BLOCK` objects kept on the sampler and re-seated as
    pulled; ``ids`` is drawn a ring at a time, so none is re-seated before
    the ``sample_sets`` call holding it returned.  Block-source samplers
    (``method="vectorized"``) draw each run of consecutive ids as one
    ``sample_batch`` from the run's first generator: a set's bytes also
    depend on where its run starts.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and int(ids.min()) < 0:
        raise ValueError(f"set ids must be >= 0, got {int(ids.min())}")
    sequence = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(key.encode()), machine_id))
    base = np.random.PCG64(sequence).state
    ring = sampler._ring
    while len(ring) < min(ids.size, PER_SET_BLOCK if sampler.per_set_source else 1):
        ring.append(np.random.Generator(np.random.PCG64(0)))

    def seat(rng: np.random.Generator, set_id: int) -> np.random.Generator:
        rng.bit_generator.state = base
        rng.bit_generator.advance(set_id * PCG64_JUMP & _MASK128)
        return rng

    if sampler.per_set_source:
        ids = ids.tolist()
        chunks = (ids[at : at + PER_SET_BLOCK] for at in range(0, len(ids), PER_SET_BLOCK))
        return concat_batches([sampler.sample_sets(map(seat, ring, chunk)) for chunk in chunks])
    runs = np.split(ids, np.flatnonzero(np.diff(ids) != 1) + 1) if ids.size else []
    return concat_batches(
        [sampler.sample_batch(seat(ring[0], int(run[0])), run.size) for run in runs]
    )


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

    #: Whether an RR set's bytes depend on its own generator alone (False on
    #: the ``method="vectorized"`` kernels, which feed a block from one);
    #: decides what :func:`sample_set_range` hands the sampler.
    per_set_source = True

    def __init__(self, graph: DirectedGraph) -> None:
        if graph.num_nodes == 0:
            raise ValueError("cannot sample RR sets from an empty graph")
        self.graph = graph
        # sample_set_range's reused generators: scratch, read nowhere else.
        self._ring: list[np.random.Generator] = []

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

        Bit-identical to ``pack_samples(sample_many(count, rng))``: it is
        :meth:`sample_sets` pulling the same generator ``count`` times.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self.sample_sets(repeat(rng, count))

    def sample_sets(self, rngs) -> FlatBatch:
        """Draw one RR set from each generator of the iterable ``rngs``.

        What :func:`sample_set_range` calls: set ``j`` of the batch is
        exactly ``sample_batch(rngs[j], 1)``, and each generator is pulled
        only when its set is drawn and dropped when the call returns.
        This base implementation packs one :meth:`sample` per generator;
        the LT and SUBSIM samplers override it with their one scalar loop
        and the IC sampler with the blocked kernel, consuming every
        generator identically without the :class:`RRSample` objects.
        """
        return pack_samples([self.sample(rng) for rng in rngs])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"
