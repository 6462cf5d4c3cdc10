"""NEWGREEDI: element-distributed maximum coverage (paper Algorithm 1).

The elements (RR sets) live scattered across machines — each machine knows
the full contents of *its* elements but nothing about the others'.  The
master keeps only the aggregated marginal-coverage vector ``Delta`` and the
lazy bucket queue; per selected seed ``u`` it runs one MapReduce-style
round:

* **map** — machine ``s_i`` walks its inverted index ``I_i(u)``, marks the
  RR sets newly covered by ``u`` and counts, per node ``v`` appearing in
  them, how much ``v``'s marginal must drop (``Delta_i``);
* **reduce** — the master subtracts the gathered ``Delta_i`` maps.

That round is :class:`NewGreeDiRounds`, the only copy in the package:
:func:`newgreedi` drives it with the bucket queue, the applications with
their own pick rules.  It runs the round's work as the picks are made and
writes the round's four phase records when the rounds object is closed.

Slaves respond with sparse ``(node, decrement)`` tuple vectors rather than
full length-``n`` vectors, the traffic optimisation the paper highlights.
The selection rule (largest marginal, lowest id on ties) is byte-for-byte
the one in :func:`repro.coverage.greedy.greedy_max_coverage`, which yields
the Lemma 2 guarantee: NEWGREEDI returns *exactly* the centralized greedy
solution, hence the full ``(1 - 1/e)``-approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..cluster.executor import Executor, GatherPhase, MachineFailure, MapPhase, MasterPhase
from ..cluster.metrics import COMPUTATION
from ..ris.wire import tuple_vector_nbytes
from .greedy import BucketQueue, GreedyResult, _cannot_pass, _pad_with_unselected
from .kernel import FlatArrays, sparse_decrements

__all__ = ["NewGreeDiResult", "NewGreeDiRounds", "newgreedi", "gather_coverage_counts"]

#: Bytes to broadcast one chosen seed id.
SEED_BYTES = 8


@dataclass
class NewGreeDiResult(GreedyResult):
    """Greedy result plus distributed bookkeeping."""

    covered_per_machine: List[int] | None = None


def _stores_of(executor: Executor, stores: Sequence) -> List:
    if len(stores) != executor.num_machines:
        raise ValueError(f"expected {executor.num_machines} stores, got {len(stores)}")
    return list(stores)


def gather_coverage_counts(
    executor: Executor,
    stores: Sequence,
    start_indices: Sequence[int] | None = None,
    label: str = "coverage-counts",
) -> np.ndarray:
    """Aggregate per-node coverage counts from all machines at the master.

    ``executor`` runs the map, gather and reduce phases; ``stores``
    holds one element store per machine.  Each machine responds with a
    sparse vector of ``(node, count)`` tuples over its elements with
    index ``>= start_indices[i]`` — DIIMM passes the previous collection
    sizes here so only *newly generated* RR sets are communicated (the
    incremental variant of Section III-C).
    """
    stores = _stores_of(executor, stores)
    starts = list(start_indices) if start_indices is not None else [0] * len(stores)
    if len(starts) != len(stores):
        raise ValueError("start_indices must have one entry per machine")

    def compute_counts(mid: int) -> np.ndarray:
        return stores[mid].coverage_counts(start=starts[mid])

    per_machine = executor.run_phase(MapPhase(f"{label}/map", compute_counts)).results
    payload_sizes = tuple(
        tuple_vector_nbytes(np.flatnonzero(c), c[np.flatnonzero(c)])
        for c in per_machine
    )
    executor.run_phase(GatherPhase(f"{label}/gather", payload_sizes))

    def reduce_counts() -> np.ndarray:
        total = np.zeros_like(per_machine[0])
        for counts in per_machine:
            total += counts
        return total

    return executor.run_phase(MasterPhase(f"{label}/reduce", reduce_counts)).results


class NewGreeDiRounds:
    """Algorithm 1's per-seed round, factored out of the rule that picks the seed.

    Every greedy that keeps the aggregated marginals at the master —
    NEWGREEDI's bucket queue to ``k``, the applications' cost-ratio,
    profit-gain and coverage-threshold rules — maintains them the same
    way: per chosen node one *broadcast → map (``Delta_i``) → gather →
    reduce* round over the machines' stores.  This object owns the state
    those rounds share: the master's marginals :attr:`counts`, each
    store's ``covered`` flags, :attr:`covered_per_machine` and every
    round's gain (:attr:`marginals`).  The caller owns the pick rule: it
    reads :attr:`counts` and calls :meth:`select` once per chosen node.

    Constructing it runs line 2 of Algorithm 1 — label every RR set
    uncovered, per machine — as the ``{label}/reset`` phase.  Each machine
    also materialises its CSR view there (a no-op for stores that are
    already flat) and reads its arrays into a
    :class:`~repro.coverage.kernel.FlatArrays` for the rounds to come, so
    any conversion or index-build cost is metered as that machine's
    computation.  ``counts=None`` then gathers the
    marginals from the stores (``{label}/init``); a given array is
    adopted and decremented in place.

    :meth:`select` meters a round — per-machine map times, reply sizes,
    the master's reduce time — and keeps those numbers; :meth:`close`
    turns them into the rounds' ``seed`` / ``map`` / ``gather`` /
    ``reduce`` phase records, in round order.  Use the object as a context
    manager (or close it in a ``finally``) around the pick loop, so the
    rounds that completed are on the books even when one fails.
    """

    def __init__(
        self,
        executor: Executor,
        stores: Sequence,
        label: str,
        counts: np.ndarray | None = None,
    ) -> None:
        self.executor = executor
        self.stores = _stores_of(executor, stores)
        self.label = label
        self.covered_per_machine = [0] * executor.num_machines
        self.marginals: List[int] = []
        self._covered: List[np.ndarray | None] = [None] * executor.num_machines
        #: Per completed round: (machine map times, reply bytes, reduce time).
        self._books: List[Tuple[List[float], List[int], float]] = []

        def reset_covered(mid: int) -> int:
            store = self.stores[mid] = FlatArrays(self.stores[mid])
            self._covered[mid] = np.zeros(store.num_sets, dtype=bool)
            return store.num_sets

        self.num_elements = sum(
            executor.run_phase(MapPhase(f"{label}/reset", reset_covered)).results
        )
        if counts is None:
            counts = gather_coverage_counts(executor, self.stores, label=f"{label}/init")
        self.counts = counts

    @property
    def coverage(self) -> int:
        """RR sets covered by the nodes selected so far."""
        return sum(self.covered_per_machine)

    def select(self, seed: int) -> int:
        """Run one round for the chosen ``seed``; return its marginal gain.

        Every machine marks the RR sets ``seed`` newly covers and answers
        with its sparse ``(node, decrement)`` vector, metered as
        :meth:`Executor.timed <repro.cluster.executor.Executor.timed>`
        meters a machine (the span of its own call on the cluster's clock,
        times its ``slowdown``); each reply is priced at its compressed size
        (:func:`repro.ris.wire.tuple_vector_nbytes`) and the master subtracts
        the replies from :attr:`counts`.  The round's phase records are
        written by :meth:`close`.
        """
        executor, stores, covered, counts = self.executor, self.stores, self._covered, self.counts
        clock, replies, stamps = executor.cluster.clock, [], []

        def run_round() -> int:
            # One clock read between machines: each stamp ends one machine's
            # map and starts the next's; the last two span the reduce.
            stamps.append(clock())
            for mid in range(executor.num_machines):
                try:
                    replies.append(sparse_decrements(stores[mid], seed, covered[mid]))
                except Exception as exc:
                    raise MachineFailure(mid, f"{self.label}/map") from exc
                stamps.append(clock())
            gained = 0
            for mid, (nodes, decs, newly) in enumerate(replies):
                self.covered_per_machine[mid] += newly
                gained += newly
                if nodes.size:
                    counts[nodes] -= decs
            stamps.append(clock())
            return gained

        gained, __ = executor.timed(run_round)  # one collector pause per round
        times = [
            (end - start) * slowdown
            for start, end, slowdown in zip(stamps, stamps[1:-1], executor.cluster.slowdowns)
        ]
        reduce_time = stamps[-1] - stamps[-2]
        sizes = [tuple_vector_nbytes(nodes, decs) for nodes, decs, __ in replies]
        self._books.append((times, sizes, reduce_time))
        self.marginals.append(gained)
        return gained

    def close(self) -> None:
        """Write the phase records of every round run since the last close.

        Per round, in order: the seed broadcast, the machines' map stage,
        the gather of their replies and the master's reduce — stamped with
        whatever round annotation the metrics carry now, so close inside
        the scope the rounds ran in.
        """
        executor, label = self.executor, self.label
        metrics = executor.metrics
        books, self._books = self._books, []
        for times, sizes, reduce_time in books:
            executor.record_transfer(f"{label}/seed", [SEED_BYTES] * executor.num_machines)
            metrics.record_compute_phase(COMPUTATION, f"{label}/map", times)
            executor.record_transfer(f"{label}/gather", sizes)
            metrics.record_compute_phase(COMPUTATION, f"{label}/reduce", [reduce_time])

    def __enter__(self) -> "NewGreeDiRounds":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def newgreedi(
    executor: Executor,
    k: int,
    stores: Sequence,
    initial_counts: np.ndarray | None = None,
    label: str = "newgreedi",
    coverage_state=None,
    accepts: Callable[[int, int], bool] | None = None,
) -> NewGreeDiResult:
    """Run Algorithm 1 on the executor's machines; return the size-``k`` solution.

    Parameters
    ----------
    executor:
        The :class:`~repro.cluster.executor.Executor` whose metrics record
        the timing/traffic.  Every round lands there as the same four
        phase records (broadcast / map / gather / master), whichever
        backend it is.
    k:
        Seed-set size.
    stores:
        Per-machine element stores, one per machine; each machine's map
        stage runs through the vectorized CSR kernel, converting a
        non-flat store once inside the metered reset phase.
    initial_counts:
        Pre-aggregated coverage counts (DIIMM maintains them incrementally
        across its iterations); when omitted they are gathered here.  The
        array is copied, never mutated.
    coverage_state:
        An incrementally maintained
        :class:`~repro.coverage.state.CoverageState` covering ``stores``.
        Selection borrows its reusable scratch copy of the counts — no
        init gather, no per-call allocation.  Mutually exclusive with
        ``initial_counts``.
    label:
        Prefix for the recorded phase labels.
    accepts:
        ``accepts(coverage, num_elements)``, the caller's test on the
        finished selection, non-decreasing in ``coverage``.  When given,
        the loop stops as soon as the selection can no longer pass it:
        before committing pick ``j + 1`` it tests the upper bound
        ``coverage_j + (k - j) * marginal_{j+1}`` (greedy marginals never
        increase) and, if even that fails, returns the ``j`` seeds it has,
        unpadded — a prefix of the full run's, which the test fails too.
        A selection that would pass is never cut short.

    Returns
    -------
    NewGreeDiResult
        Identical (seeds, coverage) to centralized greedy over the union of
        all stores — the Lemma 2 guarantee.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stores = _stores_of(executor, stores)
    num_universe_sets = stores[0].num_nodes
    for store in stores:
        if store.num_nodes != num_universe_sets:
            raise ValueError("all stores must share the same universe of sets")

    if initial_counts is not None and coverage_state is not None:
        raise ValueError("pass either initial_counts or coverage_state, not both")
    if initial_counts is not None and initial_counts.size != num_universe_sets:
        raise ValueError("initial_counts has the wrong length")
    if coverage_state is not None and coverage_state.num_nodes != num_universe_sets:
        raise ValueError("coverage_state covers a different universe of sets")

    if coverage_state is not None:
        counts = coverage_state.selection_counts()
    elif initial_counts is not None:
        counts = initial_counts.astype(np.int64, copy=True)
    else:
        counts = None  # gathered by the rounds, after their reset
    # The pick rule: largest marginal, lowest id on ties, until k seeds.
    seeds: List[int] = []
    doomed = False
    master_select_time = 0.0
    with NewGreeDiRounds(executor, stores, label, counts) as rounds:
        queue = BucketQueue(rounds.counts)
        while len(seeds) < k:
            start = time.perf_counter()
            seed = queue.pop_max()
            master_select_time += time.perf_counter() - start
            if seed is None:
                break
            # pop_max just verified counts[seed] is the largest marginal.
            if _cannot_pass(
                accepts, rounds.coverage, k - len(seeds), rounds.counts[seed], rounds.num_elements
            ):
                doomed = True
                break
            seeds.append(seed)
            rounds.select(seed)

    executor.metrics.record_compute_phase(
        COMPUTATION, f"{label}/select", [master_select_time]
    )
    if not doomed:
        _pad_with_unselected(seeds, k, num_universe_sets)
    return NewGreeDiResult(
        seeds=seeds,
        coverage=rounds.coverage,
        num_elements=rounds.num_elements,
        marginals=rounds.marginals,
        covered_per_machine=rounds.covered_per_machine,
    )
