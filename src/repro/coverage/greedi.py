"""GREEDI: the set-distributed composable core-sets baseline (Fig 10).

GREEDI (Mirzasoleiman et al., NeurIPS 2013) partitions the *sets* across
machines.  Each machine greedily picks ``kappa`` sets from its partition;
the master merges the ``l * kappa`` candidates — shipping their full
element-incidence lists — and greedily picks the final ``k`` from the
union.  With ``kappa = k`` the guarantee degrades to
``(1 - 1/e)^2 / min(l, k)``, and empirically its coverage drops as the
machine count grows (paper Fig 10(c)), because each partition sees only a
fragment of every set's context.

The paper's point, reproduced here, is the contrast: NEWGREEDI keeps the
*elements* distributed (compatible with distributed RIS), pays only sparse
tuple traffic, and still returns the exact centralized greedy solution.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.machine import Machine
from ..cluster.metrics import COMPUTATION
from .greedy import BucketQueue, GreedyResult, _pad_with_unselected
from .kernel import as_flat, candidate_degrees, mark_and_decrement
from .problem import CoverageInstance

__all__ = ["greedi", "randgreedi", "partition_sets"]

#: Bytes per element id inside a shipped candidate incidence list.
ELEMENT_ID_BYTES = 4
#: Bytes per shipped candidate set id.
SET_ID_BYTES = 4


def partition_sets(
    num_universe_sets: int,
    num_machines: int,
    rng: np.random.Generator | None = None,
) -> List[np.ndarray]:
    """Split set ids into ``num_machines`` equal partitions.

    Round-robin when ``rng`` is omitted (deterministic GREEDI); a uniform
    random shuffle otherwise (RANDGREEDI's randomized core-sets).
    """
    ids = np.arange(num_universe_sets)
    if rng is not None:
        rng.shuffle(ids)
    return [ids[i::num_machines] for i in range(num_machines)]


def _restricted_greedy(store, candidates: Sequence[int], k: int) -> List[int]:
    """Lazy greedy allowed to pick only from ``candidates``.

    Shares the bucket-queue engine (and its lowest-id tie-breaking) with
    the centralized greedy so every comparison in the experiments isolates
    the *distribution strategy*, not incidental implementation choices.
    ``store`` is a :class:`~repro.ris.flat.FlatRRCollection`; the
    decrements run through the vectorized kernel.
    """
    counts = np.zeros(store.num_nodes, dtype=np.int64)
    cand = np.asarray(candidates, dtype=np.int64)
    if cand.size:
        counts[cand] = candidate_degrees(store, cand)
    queue = BucketQueue(counts, candidates=cand)
    covered = np.zeros(store.num_sets, dtype=bool)
    selected: List[int] = []
    while len(selected) < k:
        set_id = queue.pop_max()
        if set_id is None:
            break
        mark_and_decrement(store, set_id, covered, counts)
        selected.append(set_id)
    return selected


def greedi(
    cluster: SimulatedCluster,
    instance: CoverageInstance,
    k: int,
    kappa: int | None = None,
    rng: np.random.Generator | None = None,
    label: str = "greedi",
) -> GreedyResult:
    """Run GREEDI on the cluster; returns the merged size-``k`` solution.

    Parameters
    ----------
    cluster:
        Simulated cluster (timing recorded into ``cluster.metrics``).
    instance:
        The *global* coverage instance; set-distributed partitioning is
        performed here, in GREEDI's favour (paper Section IV-A: each
        scheme starts from the data layout that suits it).
    k:
        Final solution size.
    kappa:
        Per-machine core-set size; the paper sets ``kappa = k``.
    rng:
        Optional generator for a random partition (RANDGREEDI).

    The instance is converted to CSR arrays once; every per-partition
    greedy runs through the vectorized kernel.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kappa = k if kappa is None else kappa
    partitions = partition_sets(instance.num_nodes, cluster.num_machines, rng)
    store = as_flat(instance)

    def local_stage(machine: Machine) -> List[int]:
        return _restricted_greedy(store, partitions[machine.machine_id], kappa)

    local_solutions = cluster.map(COMPUTATION, f"{label}/local", local_stage)

    # Each machine ships its kappa candidates together with their full
    # incidence lists; the master cannot evaluate coverage without them.
    payload_sizes = []
    for solution in local_solutions:
        size = 0
        for set_id in solution:
            size += SET_ID_BYTES
            size += ELEMENT_ID_BYTES * len(store.sets_containing(set_id))
        payload_sizes.append(size)
    cluster.gather(f"{label}/candidates", payload_sizes)

    def merge_stage() -> GreedyResult:
        union: List[int] = sorted({s for sol in local_solutions for s in sol})
        seeds = _restricted_greedy(store, union, k)
        _pad_with_unselected(seeds, k, instance.num_nodes)
        return GreedyResult(
            seeds=seeds,
            coverage=store.coverage_of(seeds),
            num_elements=instance.num_sets,
        )

    return cluster.run_on_master(f"{label}/merge", merge_stage)


def randgreedi(
    cluster: SimulatedCluster,
    instance: CoverageInstance,
    k: int,
    rng: np.random.Generator,
    kappa: int | None = None,
) -> GreedyResult:
    """RANDGREEDI (Barbosa et al., ICML 2015): GREEDI over a random partition.

    Randomizing the partition lifts the expected approximation to
    ``(1 - 1/e) / 2``; the protocol and traffic are GREEDI's.
    """
    return greedi(cluster, instance, k, kappa=kappa, rng=rng, label="randgreedi")
