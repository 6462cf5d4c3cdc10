"""Persistent master-side coverage state, maintained incrementally.

Every adaptive RIS algorithm keeps, on the master, the aggregated
marginal-coverage vector ``Delta`` — how many (still uncovered) RR sets
each node appears in across all machines.  Before the round driver, DIIMM
maintained it incrementally while D-SSA and D-OPIM-C rebuilt it from the
*entire* distributed collection at the start of every selection call:
``O(total RR size)`` of re-aggregation per doubling round, the redundant
per-round recomputation this module removes.

:class:`CoverageState` owns the pristine counts array and a per-machine
watermark of how many RR sets have been ingested.  After each generation
wave, machines respond with the sparse ``(node, count)`` tuple vector of
their *new* sets only (:func:`~repro.coverage.kernel.sparse_coverage_delta`
— the Section III-C traffic optimisation, now applied to every
algorithm); the master folds the deltas in with
:func:`~repro.coverage.kernel.apply_sparse_delta`.  Selection rounds
borrow a reusable scratch copy via :meth:`selection_counts`, so the
pristine vector and the scratch buffer both carry over from round to
round — no per-round re-aggregation and no per-round allocation.

The counts produced this way are integer-for-integer identical to a full
rebuild (:meth:`rebuild_from` is the oracle the tests compare against),
so seed selection is byte-for-byte unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..cluster.executor import GatherPhase, MapPhase, MasterPhase
from ..ris.wire import tuple_vector_nbytes
from .kernel import apply_sparse_delta, sparse_coverage_delta

__all__ = ["CoverageState"]


class CoverageState:
    """Aggregated per-node coverage counts over a distributed collection.

    Parameters
    ----------
    num_nodes:
        Size of the node universe ``n``.
    num_machines:
        Number of per-machine stores feeding this state.
    """

    def __init__(self, num_nodes: int, num_machines: int) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {num_machines}")
        self.num_nodes = num_nodes
        self.num_machines = num_machines
        #: Pristine aggregated counts: RR sets per node, all machines.
        self.counts = np.zeros(num_nodes, dtype=np.int64)
        #: Per-machine number of RR sets already folded into ``counts``.
        self.watermarks: List[int] = [0] * num_machines
        # Reusable working buffer selection rounds decrement into.
        self._scratch = np.zeros(num_nodes, dtype=np.int64)
        # Copy-on-write flag: a forked state shares its parent's counts
        # array until its first ingest (see fork()).
        self._owned = True

    # ------------------------------------------------------------------
    # Copy-on-write forking (the warm pool's per-query snapshot)
    # ------------------------------------------------------------------
    def fork(self) -> "CoverageState":
        """A per-query snapshot sharing this state's counts copy-on-write.

        Selection never mutates :attr:`counts` (it borrows a scratch copy
        via :meth:`selection_counts`), so the fork shares the pristine
        array for free; the first :meth:`ingest` that must fold new sets
        copies it before writing.  Forks of a donated, no-longer-mutated
        state are therefore safe to hand to concurrent queries — each
        diverges into its own copy exactly when it ingests beyond the
        snapshot.
        """
        child = CoverageState.__new__(CoverageState)
        child.num_nodes = self.num_nodes
        child.num_machines = self.num_machines
        child.counts = self.counts
        child.watermarks = list(self.watermarks)
        child._scratch = np.zeros(self.num_nodes, dtype=np.int64)
        child._owned = False
        return child

    def _ensure_owned(self) -> None:
        if not self._owned:
            self.counts = self.counts.copy()
            self._owned = True

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def ingest(
        self,
        executor,
        stores: Sequence,
        label: str = "coverage-state",
        communicate: bool = True,
    ) -> None:
        """Fold each store's RR sets beyond its watermark into the counts.

        Runs as executor phases: a map in which every machine builds the
        sparse ``(node, count)`` delta over its newly generated sets, a
        gather charged the compressed (delta + varint) size of each
        machine's vector (skipped with ``communicate=False`` — the
        single-machine algorithms, whose master and worker are the same
        host, meter the map but move no bytes), and a master-side
        reduce applying the deltas.
        """
        if len(stores) != self.num_machines:
            raise ValueError(f"expected {self.num_machines} stores, got {len(stores)}")
        if all(store.num_sets == mark for store, mark in zip(stores, self.watermarks)):
            return
        self._ensure_owned()
        starts = list(self.watermarks)

        def wave_delta(mid: int):
            return sparse_coverage_delta(stores[mid], start=starts[mid])

        deltas = executor.run_phase(MapPhase(f"{label}/map", wave_delta)).results
        if communicate:
            executor.run_phase(
                GatherPhase(
                    f"{label}/gather",
                    tuple(tuple_vector_nbytes(nodes, counts) for nodes, counts in deltas),
                )
            )

            def reduce_deltas() -> None:
                for nodes, counts in deltas:
                    apply_sparse_delta(self.counts, nodes, counts)

            executor.run_phase(MasterPhase(f"{label}/reduce", reduce_deltas))
        else:
            for nodes, counts in deltas:
                apply_sparse_delta(self.counts, nodes, counts)
        self.watermarks = [store.num_sets for store in stores]

    def repair(
        self,
        machine_id: int,
        old_nodes: np.ndarray,
        new_nodes: np.ndarray,
    ) -> None:
        """Retraction delta: swap one machine's repaired set contents.

        When a graph update regenerates RR sets *below* this state's
        watermark, their old contributions are subtracted and the new
        ones added — no rebuild.  ``old_nodes`` / ``new_nodes`` are the
        concatenated contents of the replaced sets before and after the
        repair (set ids are stable, so membership counts are all that
        changes).  Sets at or above the watermark were never ingested
        and need no retraction.
        """
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"machine_id {machine_id} out of range")
        self._ensure_owned()
        old_nodes = np.asarray(old_nodes, dtype=np.int64)
        new_nodes = np.asarray(new_nodes, dtype=np.int64)
        if old_nodes.size:
            self.counts -= np.bincount(old_nodes, minlength=self.num_nodes)
        if new_nodes.size:
            self.counts += np.bincount(new_nodes, minlength=self.num_nodes)

    def rebuild_from(self, stores: Sequence) -> np.ndarray:
        """Oracle path: re-aggregate the counts from the full stores.

        Returns the freshly built vector *without* touching the
        incremental state — differential tests and the benchmark gate
        compare it against :attr:`counts`.
        """
        total = np.zeros(self.num_nodes, dtype=np.int64)
        for store in stores:
            total += store.coverage_counts()
        return total

    # ------------------------------------------------------------------
    # Selection handoff
    # ------------------------------------------------------------------
    def selection_counts(self) -> np.ndarray:
        """A working copy of the counts for one selection round.

        The returned array is the state's reusable scratch buffer:
        selection decrements it freely as elements become covered while
        the pristine :attr:`counts` survives for the next round.  Only
        one selection may borrow it at a time — exactly the round
        driver's access pattern.
        """
        np.copyto(self._scratch, self.counts)
        return self._scratch

    def nbytes(self) -> int:
        """Resident bytes of the master state (counts + scratch buffer)."""
        return int(self.counts.nbytes + self._scratch.nbytes)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Arrays capturing the state, ready for ``np.savez``."""
        return {
            "counts": self.counts.copy(),
            "watermarks": np.asarray(self.watermarks, dtype=np.int64),
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        counts = np.asarray(state["counts"], dtype=np.int64)
        watermarks = [int(w) for w in np.asarray(state["watermarks"])]
        if counts.size != self.num_nodes:
            raise ValueError(
                f"checkpointed counts cover {counts.size} nodes, expected {self.num_nodes}"
            )
        if len(watermarks) != self.num_machines:
            raise ValueError(
                f"checkpointed watermarks cover {len(watermarks)} machines, "
                f"expected {self.num_machines}"
            )
        self.counts = counts
        self.watermarks = watermarks
        self._owned = True

    def __repr__(self) -> str:
        return (
            f"CoverageState(num_nodes={self.num_nodes}, "
            f"ingested={self.watermarks})"
        )
