"""Figure 10: standalone maximum-coverage comparison.

The coverage instance is the graph itself (Section IV-A): the universe
``V`` doubles as the ground set of elements, and node ``u``'s set is its
neighborhood, so picking ``k`` sets maximises the size of a neighbor
union.  Three algorithms run per (dataset, core-count) point:

* the sequential lazy greedy (baseline for the speedup axis) on the flat
  CSR kernel,
* NEWGREEDI over element-distributed parts (exact same coverage as the
  sequential greedy — asserted at run time),
* GREEDI over a set-distributed partition with ``kappa = k``.

All three select on CSR copies made before the clock starts (the
instance's, and NEWGREEDI's per-machine parts), so the times compare
selection, not data-layout conversion.

Paper shapes to compare against: NEWGREEDI speedup ~3.5x at 4 cores,
10-18x at 64 cores; GREEDI slower with a worse speedup; GREEDI's coverage
ratio dropping below 1 and degrading as cores grow (Fig 10(c)).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.network import shared_memory_server
from ..coverage.greedi import greedi
from ..coverage.greedy import greedy_max_coverage
from ..coverage.kernel import as_flat
from ..coverage.newgreedi import newgreedi
from ..coverage.problem import CoverageInstance
from ..graphs.datasets import DATASET_NAMES, load_dataset

__all__ = ["fig10_maxcover", "SERVER_CORE_COUNTS"]

SERVER_CORE_COUNTS = (1, 4, 16, 64)


def fig10_maxcover(
    datasets: Sequence[str] = DATASET_NAMES,
    core_counts: Sequence[int] = SERVER_CORE_COUNTS,
    k: int = 50,
    seed: int = 2022,
) -> list[dict]:
    """Run the Fig 10 sweep; returns one row per (dataset, cores)."""
    rows: list[dict] = []
    for dataset in datasets:
        ds = load_dataset(dataset, seed=seed)
        instance = CoverageInstance.from_graph(ds.graph)

        store = as_flat(instance)
        start = time.perf_counter()
        sequential = greedy_max_coverage([store], k)
        sequential_time = time.perf_counter() - start

        for cores in core_counts:
            rng = np.random.default_rng(seed + cores)
            parts = [as_flat(part) for part in instance.split(cores, rng=rng)]
            cluster = SimulatedCluster(cores, network=shared_memory_server(), seed=seed)
            new_result = newgreedi(cluster, k, stores=parts)
            if new_result.coverage != sequential.coverage:
                raise AssertionError(
                    "NEWGREEDI diverged from the sequential greedy: "
                    f"{new_result.coverage} != {sequential.coverage} "
                    f"({dataset}, cores={cores})"
                )
            new_time = cluster.metrics.total_time

            greedi_cluster = SimulatedCluster(
                cores, network=shared_memory_server(), seed=seed
            )
            greedi_result = greedi(greedi_cluster, instance, k)
            greedi_time = greedi_cluster.metrics.total_time

            rows.append(
                {
                    "figure": "fig10-maxcover",
                    "dataset": dataset,
                    "cores": cores,
                    "sequential_s": round(sequential_time, 4),
                    "newgreedi_s": round(new_time, 4),
                    "greedi_s": round(greedi_time, 4),
                    "newgreedi_speedup": round(sequential_time / new_time, 2)
                    if new_time
                    else 0.0,
                    "greedi_speedup": round(sequential_time / greedi_time, 2)
                    if greedi_time
                    else 0.0,
                    "newgreedi_coverage": new_result.coverage,
                    "greedi_coverage": greedi_result.coverage,
                    "coverage_ratio": round(
                        greedi_result.coverage / new_result.coverage, 4
                    )
                    if new_result.coverage
                    else 0.0,
                }
            )
    return rows
