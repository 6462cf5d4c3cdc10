"""Sketch coverage backend: HyperLogLog register banks per node.

The flat CSR store keeps every RR set exactly, so its memory grows with
``theta * E[|R|]`` — the scaling wall ROADMAP item 3 names.  This module
trades exactness for a fixed-size summary: each node ``v`` keeps an
``m = 2**precision`` byte HyperLogLog register row estimating the number
of *distinct* RR sets containing ``v`` (Göktürk & Kaya, arXiv:2105.04023;
DiFuseR, arXiv:2410.14047).  The whole bank is one packed
``(num_nodes * m,)`` ``uint8`` array — ``O(n * m)`` bytes, independent of
how many RR sets were generated.

Determinism across executors comes for free from the algebra: every RR
set gets a *global* id (machine offset + local index), the id is hashed
once with splitmix64, and every member node applies the same
``(register, rho)`` update.  Register merge is ``max`` — commutative and
idempotent — so the master bank is bit-identical no matter which
executor, wave order, or fault-recovery path delivered the updates, and
seed selection (a pure function of the bank) is bit-identical too.

Three layers mirror the exact path:

* :class:`SketchRRCollection` — the per-machine store (same append/read
  protocol as :class:`~repro.ris.flat.FlatRRCollection`), plus a per-wave
  *register journal* so ingests ship only the registers a wave touched;
* :class:`SketchCoverageState` — the master-side merged bank, maintained
  through the same MapPhase → GatherPhase → MasterPhase wave protocol as
  :class:`~repro.coverage.state.CoverageState`, with gathers charged the
  delta + varint size of each machine's sparse ``(register key, rho)``
  vector;
* :func:`sketch_lazy_greedy` — CELF-style lazy greedy over estimated
  marginal gains.  Against sketch noise reordering stale gains, a pick
  waits until the best ``guard`` candidates by (−gain, lowest id) are all
  fresh; each step walks one order of the stale gains, refreshing a
  prefix of it in batches from the registers each candidate raises above
  the union (exact sums while ``precision + max register <= 53``, the
  dense estimate past that).
"""

from __future__ import annotations

import functools
import math
from bisect import insort
from typing import List, Sequence, Tuple

import numpy as np

from ..cluster.executor import GatherPhase, MapPhase, MasterPhase
from ..ris.flat import checked_batch
from ..ris.rrset import splitmix64
from ..ris.wire import tuple_vector_nbytes
from .greedy import GreedyResult, _pad_with_unselected

__all__ = [
    "MIN_PRECISION",
    "MAX_PRECISION",
    "SketchRRCollection",
    "SketchCoverageState",
    "splitmix64",
    "register_updates",
    "merge_register_updates",
    "hll_estimate",
    "hll_relative_error",
    "estimate_bank_degrees",
    "sketch_lazy_greedy",
]

#: Supported register-count exponents: ``m = 2**precision`` registers per
#: node, one byte each.  4 is the smallest HyperLogLog with published
#: bias constants; 16 (64 KiB per node) is already past the point where
#: the flat store is cheaper.
MIN_PRECISION = 4
MAX_PRECISION = 16

#: Bit position of the machine id inside a global set id.  Machine ``i``
#: hashes set ids ``i * 2**44 + local_index``, so collections on
#: different machines never collide before ``2**44`` sets per machine.
_MACHINE_SHIFT = 44


# ----------------------------------------------------------------------
# Hashing and register arithmetic (vectorized, no per-set Python objects)
# ----------------------------------------------------------------------
def _bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for ``uint64`` (exact at all widths).

    Binary search over shifts — ``np.log2`` would lose precision past 53
    bits and misplace ``rho`` near powers of two.
    """
    x = np.asarray(values, dtype=np.uint64).copy()
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        s = np.uint64(shift)
        big = x >= (np.uint64(1) << s)
        out[big] += shift
        x[big] >>= s
    out[x > 0] += 1
    return out


def register_updates(set_ids: np.ndarray, precision: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-set ``(register, rho)`` updates for a batch of global set ids.

    The top ``precision`` hash bits pick the register; ``rho`` is the
    rank (leading-zero count + 1) of the remaining ``64 - precision``
    bits — the textbook HyperLogLog split, computed in one vectorized
    pass the way :mod:`repro.coverage.kernel` computes sparse deltas.
    """
    hashed = splitmix64(np.asarray(set_ids, dtype=np.uint64))
    width = 64 - precision
    registers = (hashed >> np.uint64(width)).astype(np.int64)
    rest = hashed & ((np.uint64(1) << np.uint64(width)) - np.uint64(1))
    rhos = width + 1 - _bit_length(rest)
    return registers, rhos


def merge_register_updates(
    keys: np.ndarray, rhos: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse raw updates to a sorted unique ``(key, max rho)`` vector.

    ``keys`` are flat register addresses (``node * m + register``).  The
    output is sorted ascending — the layout
    :func:`repro.ris.wire.tuple_vector_nbytes` charges, and the layout
    the master merges with one fancy-indexed ``maximum``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    rhos = np.asarray(rhos, dtype=np.int64)
    if keys.size == 0:
        return keys, rhos
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rhos = rhos[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    boundaries = np.flatnonzero(starts)
    return keys[boundaries], np.maximum.reduceat(rhos, boundaries)


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------
def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


#: ``2**-r`` for every value a ``uint8`` register can hold.
_INVERSE_POWERS = np.ldexp(1.0, -np.arange(256))
_INVERSE_POWERS.setflags(write=False)

#: Significand bits of a ``float64``: a sum of ``m = 2**precision`` terms
#: ``2**-r`` is exact — the same number in whatever order it is added —
#: while ``precision + max(r) <= 53``.
_EXACT_BITS = 53

#: ``float64`` entries one :func:`estimate_bank_degrees` chunk expands to
#: (1 MiB): the pass runs ~3x faster inside the cache than through it.
_CHUNK_ENTRIES = 1 << 17


@functools.lru_cache(maxsize=16)
def _linear_counts(m: int) -> np.ndarray:
    """``m * log(m / z)`` for ``z = 0..m`` zero registers (entry 0 is ``inf``).

    One table per ``m`` so a row estimated alone, in a batch or from
    stored sums reads the same ``float64``: a vectorized ``np.log`` and
    ``math.log`` differ in the last bit for some ``z``.
    """
    table = np.empty(m + 1, dtype=np.float64)
    table[0] = math.inf
    table[1:] = [m * math.log(m / z) for z in range(1, m + 1)]
    table.setflags(write=False)
    return table


def _as_registers(registers) -> np.ndarray:
    """``registers`` as ``uint8``, refusing what a register cannot hold."""
    regs = np.asarray(registers)
    if regs.dtype == np.uint8:
        return regs
    if regs.dtype.kind not in "iu":
        raise TypeError(f"registers must be integers, got dtype {regs.dtype}")
    if regs.size and (regs.min() < 0 or regs.max() > 255):
        raise ValueError("register values must lie in [0, 255]")
    return regs.astype(np.uint8)


def _estimate_from_sums(sums, zeros, m: int) -> np.ndarray:
    """Estimates from per-row harmonic sums and zero-register counts."""
    raw = _alpha(m) * m * m / sums
    small = (raw <= 2.5 * m) & (zeros > 0)
    return np.where(small, _linear_counts(m)[zeros], raw)


def hll_estimate(registers: np.ndarray) -> np.ndarray:
    """Cardinality estimate(s) from register rows (last axis = registers).

    The Flajolet et al. raw harmonic-mean estimator with the small-range
    linear-counting correction; the large-range correction is unnecessary
    with 64-bit hashes.  Accepts a single ``(m,)`` row (returns a float)
    or a stacked ``(..., m)`` bank and estimates along the last axis; a
    row's estimate is the same ``float64`` either way.  Registers are
    bytes: other integer dtypes are accepted when every value fits,
    anything else is refused.
    """
    regs = _as_registers(registers)
    m = regs.shape[-1]
    sums = np.take(_INVERSE_POWERS, regs).sum(axis=-1)
    out = _estimate_from_sums(sums, m - np.count_nonzero(regs, axis=-1), m)
    return float(out) if out.ndim == 0 else out


def hll_relative_error(precision: int) -> float:
    """The standard error ``1.04 / sqrt(m)`` of an ``m = 2**precision`` sketch."""
    return 1.04 / math.sqrt(float(1 << precision))


def estimate_bank_degrees(bank: np.ndarray, chunk: int | None = None) -> np.ndarray:
    """Per-node coverage-degree estimates over a ``(n, m)`` register bank.

    The ``O(n * m)`` pass — the oracle for the degrees a
    :class:`SketchCoverageState` keeps current.  Chunked (by default to
    ~1 MiB of transient ``float64``) so the expansion stays in cache.
    """
    if chunk is None:
        chunk = max(1, _CHUNK_ENTRIES // bank.shape[1])
    out = np.empty(bank.shape[0], dtype=np.float64)
    for lo in range(0, bank.shape[0], chunk):
        out[lo : lo + chunk] = hll_estimate(bank[lo : lo + chunk])
    return out


# ----------------------------------------------------------------------
# Per-machine store
# ----------------------------------------------------------------------
class SketchRRCollection:
    """An RR-set store that keeps register banks instead of set contents.

    Implements the growth/accounting protocol of
    :class:`~repro.ris.flat.FlatRRCollection` (``num_nodes`` /
    ``num_sets`` / ``total_size`` / ``total_edges_examined`` /
    ``append_arrays`` / ``coverage_of`` / ``nbytes``), so generation
    phases and the round driver accept it unchanged — but reads return
    *estimates* and individual set contents are gone the moment they are
    folded in.

    Appends additionally journal each wave's merged sparse
    ``(register key, rho)`` vector so
    :meth:`register_delta` can replay exactly the registers a wave
    touched; :class:`SketchCoverageState` prunes the journal after every
    ingest, keeping store memory ``O(n * m)`` regardless of ``theta``.
    """

    def __init__(self, num_nodes: int, precision: int = 10, machine_id: int = 0) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise ValueError(
                f"precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], "
                f"got {precision}"
            )
        if not 0 <= machine_id < (1 << (64 - _MACHINE_SHIFT)):
            raise ValueError(f"machine_id out of range: {machine_id}")
        self._num_nodes = num_nodes
        self._precision = precision
        self._m = 1 << precision
        self._machine_id = machine_id
        self._registers = np.zeros(num_nodes * self._m, dtype=np.uint8)
        self._num_sets = 0
        self._total_size = 0
        self._total_edges_examined = 0
        #: Wave journal: ``(start_set, end_set, keys, rhos)`` per append.
        self._journal: List[Tuple[int, int, np.ndarray, np.ndarray]] = []

    # -- protocol surface ------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def total_size(self) -> int:
        return self._total_size

    @property
    def total_edges_examined(self) -> int:
        return self._total_edges_examined

    @property
    def precision(self) -> int:
        return self._precision

    @property
    def num_registers(self) -> int:
        """Registers per node, ``m = 2**precision``."""
        return self._m

    @property
    def machine_id(self) -> int:
        return self._machine_id

    @property
    def registers(self) -> np.ndarray:
        """The flat ``(num_nodes * m,)`` register array (do not mutate)."""
        return self._registers

    def register_bank(self) -> np.ndarray:
        """The registers as a ``(num_nodes, m)`` view (do not mutate)."""
        return self._registers.reshape(self._num_nodes, self._m)

    def __len__(self) -> int:
        return self._num_sets

    # -- growth ----------------------------------------------------------
    def append_arrays(
        self, nodes: np.ndarray, offsets: np.ndarray, edges_examined: np.ndarray
    ) -> None:
        """Fold a flat CSR wave of RR sets into the register bank.

        Takes what :meth:`FlatRRCollection.append_arrays
        <repro.ris.flat.FlatRRCollection.append_arrays>` takes: the wave's
        CSR arrays and one ``edges_examined`` count per set.  Each new
        set's global id is hashed once; every member node receives the
        same ``(register, rho)`` update, applied with one sorted-unique
        fancy-indexed ``maximum``.
        """
        nodes, offsets, edges = checked_batch(
            nodes, offsets, edges_examined, self._num_nodes
        )
        self._total_edges_examined += int(edges.sum())
        count = edges.size
        if count == 0:
            return
        set_ids = (np.uint64(self._machine_id) << np.uint64(_MACHINE_SHIFT)) + np.arange(
            self._num_sets, self._num_sets + count, dtype=np.uint64
        )
        registers, rhos = register_updates(set_ids, self._precision)
        lengths = np.diff(offsets)
        member_set = np.repeat(np.arange(count, dtype=np.int64), lengths)
        keys, merged = merge_register_updates(
            nodes.astype(np.int64) * self._m + registers[member_set], rhos[member_set]
        )
        if keys.size:
            # Keys are unique, so one gather + one fancy store suffices
            # (np.maximum.at would be correct but much slower).
            self._registers[keys] = np.maximum(
                self._registers[keys], merged.astype(np.uint8)
            )
        self._journal.append((self._num_sets, self._num_sets + count, keys, merged))
        self._num_sets += count
        self._total_size += int(nodes.size)

    # -- wave protocol ---------------------------------------------------
    def register_delta(self, start: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Merged sparse ``(key, rho)`` vector of sets ``start..num_sets``.

        ``start`` must be a wave boundary still held by the journal — the
        driver's watermark-aligned growth guarantees this, and the
        boundary check catches misaligned callers instead of silently
        dropping updates.
        """
        if start == self._num_sets:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        entries = [entry for entry in self._journal if entry[0] >= start]
        if not entries or entries[0][0] != start:
            retained = self._journal[0][0] if self._journal else self._num_sets
            raise ValueError(
                f"register journal cannot replay a delta from set {start}: "
                f"retained waves start at {retained} (pruned waves are gone; "
                "deltas must align with ingest watermarks)"
            )
        return merge_register_updates(
            np.concatenate([entry[2] for entry in entries]),
            np.concatenate([entry[3] for entry in entries]),
        )

    def prune_journal(self, upto: int | None = None) -> None:
        """Drop journal entries fully ingested below ``upto`` (default: all)."""
        if upto is None:
            upto = self._num_sets
        self._journal = [entry for entry in self._journal if entry[1] > upto]

    # -- reads (estimates) -----------------------------------------------
    def coverage_of(self, seeds: Sequence[int]) -> float:
        """Estimated number of distinct RR sets hit by ``seeds``."""
        seeds = np.asarray(list(seeds), dtype=np.int64)
        if seeds.size == 0 or self._num_sets == 0:
            return 0.0
        union = np.maximum.reduce(self.register_bank()[seeds], axis=0)
        return float(min(hll_estimate(union), float(self._num_sets)))

    def estimate_degrees(self) -> np.ndarray:
        """Per-node estimated coverage degrees (the sketch's ``Delta``)."""
        return estimate_bank_degrees(self.register_bank())

    def nbytes(self) -> int:
        """Resident bytes: register bank plus un-pruned journal entries."""
        journal = sum(entry[2].nbytes + entry[3].nbytes for entry in self._journal)
        return int(self._registers.nbytes + journal)

    def __repr__(self) -> str:
        return (
            f"SketchRRCollection(num_nodes={self._num_nodes}, "
            f"precision={self._precision}, num_sets={self._num_sets})"
        )


# ----------------------------------------------------------------------
# Master-side merged state
# ----------------------------------------------------------------------
class SketchCoverageState:
    """Master-side merged register bank over a distributed collection.

    The sketch twin of :class:`~repro.coverage.state.CoverageState`: the
    same per-machine watermarks, the same MapPhase (each machine builds
    its wave's sparse register delta) → GatherPhase (charged the
    delta + varint compressed vector size) → MasterPhase (fold deltas)
    ingest protocol, so simulated, multiprocessing and socket executors
    carry sketch updates with identical byte accounting.  Because the
    merge is an idempotent ``max``, the resulting bank — and therefore
    seed selection — is bit-identical across executors and wave orders.

    Beside the bank the state keeps each node's harmonic sum
    ``sum(2**-register)`` and zero-register count, updated from the
    ``(old, new)`` pair of every register a delta raises, so
    :meth:`degrees` is ``O(n)`` rather than an ``O(n * m)`` pass over the
    bank.  The sums are exact — equal to
    :func:`estimate_bank_degrees` on the bank bit for bit — while the
    largest register ``r`` satisfies ``precision + r <= 53``; past that
    (a ``2**-37`` event per RR set even at precision 16) :meth:`degrees`
    takes the bank pass instead.
    """

    def __init__(self, num_nodes: int, num_machines: int, precision: int = 10) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {num_machines}")
        if not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise ValueError(
                f"precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], "
                f"got {precision}"
            )
        self.num_nodes = num_nodes
        self.num_machines = num_machines
        self.precision = precision
        self.num_registers = 1 << precision
        #: Flat merged bank, ``max`` over every ingested machine delta;
        #: written only by :meth:`_apply`, which keeps the sums below in step.
        self.registers = np.zeros(num_nodes * self.num_registers, dtype=np.uint8)
        self._harmonic = np.full(num_nodes, float(self.num_registers))
        self._zero_registers = np.full(num_nodes, self.num_registers, dtype=np.int64)
        self._largest_register = 0
        #: Per-machine number of RR sets already folded into the bank.
        self.watermarks: List[int] = [0] * num_machines

    def bank(self) -> np.ndarray:
        """The merged registers as a ``(num_nodes, m)`` view (read-only use)."""
        return self.registers.reshape(self.num_nodes, self.num_registers)

    def degrees(self) -> np.ndarray:
        """Per-node degree estimates, ``estimate_bank_degrees(self.bank())``."""
        if self.precision + self._largest_register > _EXACT_BITS:
            return estimate_bank_degrees(self.bank())
        return _estimate_from_sums(
            self._harmonic, self._zero_registers, self.num_registers
        )

    def _apply(self, keys: np.ndarray, rhos: np.ndarray) -> None:
        """Raise registers ``keys`` to at least ``rhos``.

        ``keys`` must ascend strictly, the layout
        :func:`merge_register_updates` ships: a repeated key would keep
        whichever ``rho`` the fancy store wrote last, not the largest.
        """
        if not keys.size:
            return
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("register delta keys must be strictly ascending")
        old = self.registers[keys]
        new = _as_registers(rhos)
        raised = new > old
        keys, old, new = keys[raised], old[raised], new[raised]
        if not keys.size:
            return
        self.registers[keys] = new
        nodes = keys >> self.precision
        self._harmonic -= np.bincount(
            nodes,
            weights=_INVERSE_POWERS[old] - _INVERSE_POWERS[new],
            minlength=self.num_nodes,
        )
        self._zero_registers -= np.bincount(nodes[old == 0], minlength=self.num_nodes)
        self._largest_register = max(self._largest_register, int(new.max()))

    def ingest(
        self,
        executor,
        stores: Sequence,
        label: str = "sketch-state",
        communicate: bool = True,
    ) -> None:
        """Fold each store's registers beyond its watermark into the bank.

        Same phase shape as :meth:`CoverageState.ingest
        <repro.coverage.state.CoverageState.ingest>`; afterwards each
        store's journal is pruned to its watermark, which is what bounds
        sketch memory by ``O(n * m)`` instead of ``O(theta)``.
        """
        if len(stores) != self.num_machines:
            raise ValueError(f"expected {self.num_machines} stores, got {len(stores)}")
        if all(store.num_sets == mark for store, mark in zip(stores, self.watermarks)):
            return
        starts = list(self.watermarks)

        def wave_delta(mid: int):
            return stores[mid].register_delta(start=starts[mid])

        deltas = executor.run_phase(MapPhase(f"{label}/map", wave_delta)).results
        if communicate:
            executor.run_phase(
                GatherPhase(
                    f"{label}/gather",
                    tuple(tuple_vector_nbytes(keys, rhos) for keys, rhos in deltas),
                )
            )

            def reduce_deltas() -> None:
                for keys, rhos in deltas:
                    self._apply(keys, rhos)

            executor.run_phase(MasterPhase(f"{label}/reduce", reduce_deltas))
        else:
            for keys, rhos in deltas:
                self._apply(keys, rhos)
        self.watermarks = [store.num_sets for store in stores]
        for store in stores:
            store.prune_journal()

    def rebuild_from(self, stores: Sequence) -> np.ndarray:
        """Oracle path: re-merge the full banks without touching state."""
        return np.maximum.reduce([np.asarray(store.registers) for store in stores])

    def estimate(self, seeds: Sequence[int]) -> float:
        """Estimated distinct covered sets for a seed set, from the bank."""
        seeds = np.asarray(list(seeds), dtype=np.int64)
        if seeds.size == 0:
            return 0.0
        return float(hll_estimate(np.maximum.reduce(self.bank()[seeds], axis=0)))

    def nbytes(self) -> int:
        return int(self.registers.nbytes)

    def __repr__(self) -> str:
        return (
            f"SketchCoverageState(num_nodes={self.num_nodes}, "
            f"precision={self.precision}, ingested={self.watermarks})"
        )


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
#: Candidates one fresh-estimate batch takes.  Its temporaries are the
#: ``(B, m)`` rows and their raised-register mask, ``2·B·m`` bytes (128 KiB
#: at ``m = 2,048``), so they stay in cache.  A batch carries ~40 µs of
#: fixed NumPy overhead; on the ``cold_ic_sketch`` banks (2-core Xeon) 32
#: selected faster than 8, 16, 48 or 64, wasting at most 31 estimates a
#: step past where the walk stops.
_REFRESH_BATCH = 32

#: The first ordered window of a step holds this many candidates per unit
#: of ``guard`` (plus the rest of its last value's tie group); the walk
#: doubles it when it reaches the end.
_WINDOW_PER_GUARD = 16


def _ordered_window(gains: np.ndarray, below: float, size: int):
    """The best ``size`` live candidates with gain ``< below``, in order.

    The order is (−gain, lowest id), and the window is exact down to its
    last value: every candidate with that gain is in it, so the next
    window (gains ``< floor``) continues the same order.  Returns the
    ``(−gain, id)`` keys and the floor, ``-inf`` once every live
    candidate is in.
    """
    ids = np.flatnonzero((gains < below) & (gains != -np.inf))
    values = gains[ids]
    floor = -np.inf
    if ids.size > size:
        floor = np.partition(values, ids.size - size)[ids.size - size]
        keep = values >= floor
        ids, values = ids[keep], values[keep]
    order = np.lexsort((ids, -values))
    return list(zip((-values[order]).tolist(), ids[order].tolist())), floor


class _UnionRefresh:
    """Fresh union estimates ``hll_estimate(np.maximum(current, bank[u]))``.

    The union's harmonic sum and zero-register count are kept, and a
    candidate's estimate adds only the registers it raises above the
    union: ``Σ(2^-new − 2^-old)`` and the zeros it fills.  Every term is
    a multiple of ``2^-r_max`` and every partial sum lies below ``m``, so
    the sums are exact, and the estimate bit-equal to the dense one,
    while ``precision + r_max <= 53`` (:data:`_EXACT_BITS`); a batch
    past that takes the dense estimate.
    """

    def __init__(self, bank: np.ndarray) -> None:
        self.bank = bank
        self.m = bank.shape[1]
        self.largest_exact = _EXACT_BITS - (self.m - 1).bit_length()
        self.current = np.zeros(self.m, dtype=np.uint8)
        self.harmonic = float(self.m)
        self.zeros = self.m
        self.exact = True

    def add(self, node: int) -> None:
        """Fold ``node``'s row into the union."""
        np.maximum(self.current, self.bank[node], out=self.current)
        self.harmonic = float(np.take(_INVERSE_POWERS, self.current).sum())
        self.zeros = self.m - int(np.count_nonzero(self.current))
        self.exact = int(self.current.max()) <= self.largest_exact

    def estimates(self, nodes: List[int]) -> np.ndarray:
        rows = self.bank[nodes]
        raised = np.flatnonzero(rows > self.current)
        new = rows.ravel()[raised]
        if not self.exact or (new.size and int(new.max()) > self.largest_exact):
            return hll_estimate(np.maximum(self.current, rows))
        at, register = np.divmod(raised, self.m)
        old = self.current[register]
        delta = np.bincount(
            at, weights=_INVERSE_POWERS[new] - _INVERSE_POWERS[old], minlength=len(nodes)
        )
        filled = np.bincount(at[old == 0], minlength=len(nodes))
        return _estimate_from_sums(self.harmonic + delta, self.zeros - filled, self.m)


def sketch_lazy_greedy(
    bank: np.ndarray,
    k: int,
    num_elements: int,
    guard: int = 8,
    degrees: np.ndarray | None = None,
) -> GreedyResult:
    """CELF lazy greedy over estimated marginal gains from a register bank.

    ``bank`` is the merged ``(n, m)`` master bank; candidates are nodes,
    elements are RR sets, and a candidate's marginal gain is the increase
    of the *union* sketch's estimate.  Sketch estimates are noisy (not
    exactly submodular), so a pick is trusted only once the best
    ``guard`` candidates are all fresh against the current union.
    Candidates are ranked by (−gain, lowest id) — the tie rule of the
    exact engines — and the routine is a pure function of the bank, the
    source of cross-executor determinism.

    A step is a walk down one order.  The live candidates are sorted once
    by their stale gains, over a window that holds its last value's whole
    tie group and doubles when the walk reaches its end.  Each pass merges
    the best ``guard`` fresh gains with the next ``guard`` stale ones and
    refreshes the stale ones that make the cut; the walk stops when none
    does and picks the best fresh candidate.  So the refreshed candidates
    are a prefix of the order, and the decisions are those of a loop that
    re-ranks every gain per pass.  Fresh estimates are computed
    :data:`_REFRESH_BATCH` candidates at a time from the registers each
    raises above the union (:class:`_UnionRefresh`); they are bit-equal
    to ``hll_estimate(np.maximum(union, row))`` while ``precision + max
    register <= 53``, and are that dense estimate past it.

    ``degrees`` are the bank's per-node estimates when the caller already
    holds them (:meth:`SketchCoverageState.degrees`); omitted, they cost
    one :func:`estimate_bank_degrees` pass.  The array is not mutated.

    Returns a :class:`~repro.coverage.greedy.GreedyResult` whose
    ``coverage``/``marginals`` are float estimates (the exact engines
    return ints; ``fraction`` works identically on both).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if guard < 1:
        raise ValueError(f"guard must be >= 1, got {guard}")
    bank = _as_registers(bank)
    if bank.ndim != 2:
        raise ValueError(f"bank must be 2-D (nodes x registers), got {bank.ndim}-D")
    n = bank.shape[0]
    if degrees is None:
        gains = estimate_bank_degrees(bank)
    else:
        gains = np.array(degrees, dtype=np.float64)
        if gains.shape != (n,):
            raise ValueError(f"degrees must have one entry per node, got {gains.shape}")
    # ``gains`` holds each candidate's gain from the last step that
    # refreshed it: a step writes its fresh gains back only when it picks,
    # so its windows keep ordering the stale values.  A selected node's
    # entry is -inf from the moment it is chosen.
    union = _UnionRefresh(bank)
    current_est = 0.0
    seeds: List[int] = []
    marginals: List[float] = []

    for _ in range(min(k, n)):
        order, floor = _ordered_window(gains, math.inf, _WINDOW_PER_GUARD * guard)
        walked = 0  # order[:walked] is fresh; the rest keeps its stale gain
        fresh: List[float] = []  # fresh gains of order[:len(fresh)] (computed ahead)
        unions: List[float] = []  # and their union estimates
        best: List[Tuple[float, int, int]] = []  # best fresh (−gain, id, position)
        while True:
            while len(order) < walked + guard and floor != -math.inf:
                more, floor = _ordered_window(gains, floor, len(order))
                order += more
            # The next stale candidate makes the cut while fewer than
            # ``guard`` rank above it: the stale ones before it and
            # ``ahead`` fresh ones.
            made_cut = ahead = 0
            for key in order[walked : walked + guard]:
                while ahead < len(best) and best[ahead] < key:
                    ahead += 1
                if made_cut + ahead >= guard:
                    break
                made_cut += 1
            if not made_cut:
                break
            while len(fresh) < walked + made_cut:
                start = len(fresh)
                estimates = union.estimates(
                    [node for _, node in order[start : start + _REFRESH_BATCH]]
                )
                unions += estimates.tolist()
                fresh += np.maximum(estimates - current_est, 0.0).tolist()
            for position in range(walked, walked + made_cut):
                insort(best, (-fresh[position], order[position][1], position))
            del best[guard:]
            walked += made_cut
        _, v, position = best[0]
        gains[[node for _, node in order[:walked]]] = fresh[:walked]
        seeds.append(v)
        marginals.append(fresh[position])
        union.add(v)
        current_est = max(current_est, unions[position])
        gains[v] = -np.inf

    coverage = float(min(current_est, float(num_elements)))
    _pad_with_unselected(seeds, k, n)
    return GreedyResult(
        seeds=seeds,
        coverage=coverage,
        num_elements=num_elements,
        marginals=marginals,
    )
