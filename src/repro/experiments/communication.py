"""Communication scaling: NEWGREEDI's traffic and time versus machines.

Figs 5-9 fold communication into the stacked breakdown; this experiment
isolates it.  A fixed pool of RR sets is scattered over ``l`` machines
and NEWGREEDI runs on each layout, so the *work* is constant and only the
protocol cost varies.  The paper's claims to check: communication time
increases with the machine count, but stays roughly an order of
magnitude below computation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.network import gigabit_cluster
from ..coverage.newgreedi import newgreedi
from ..graphs.datasets import load_dataset
from ..ris import FlatRRCollection, make_sampler

__all__ = ["communication_scaling"]


def communication_scaling(
    dataset: str = "livejournal",
    machine_counts: Sequence[int] = (1, 2, 4, 8, 16),
    num_rr_sets: int = 20000,
    k: int = 50,
    model: str = "ic",
    seed: int = 2022,
) -> list[dict]:
    """NEWGREEDI on a fixed RR pool, per machine count."""
    ds = load_dataset(dataset, seed=seed)
    sampler = make_sampler(ds.graph, model=model)
    pool = sampler.sample_many(num_rr_sets, np.random.default_rng(seed))

    rows = []
    for machines in machine_counts:
        cluster = SimulatedCluster(machines, network=gigabit_cluster(), seed=seed)
        stores = [FlatRRCollection(ds.graph.num_nodes) for __ in range(machines)]
        for idx, sample in enumerate(pool):
            stores[idx % machines].add(sample)
        result = newgreedi(cluster, k, stores=stores)
        breakdown = cluster.metrics.breakdown()
        comm = breakdown["communication"]
        comp = breakdown["computation"]
        rows.append(
            {
                "experiment": "communication-scaling",
                "dataset": dataset,
                "machines": machines,
                "coverage": result.coverage,
                "computation_s": round(comp, 4),
                "communication_s": round(comm, 5),
                "comm_mb": round(cluster.metrics.total_bytes / 1e6, 3),
                "comm_over_comp": round(comm / comp, 4) if comp else 0.0,
            }
        )
    return rows
