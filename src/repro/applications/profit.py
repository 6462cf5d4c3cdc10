"""Distributed profit maximization.

Profit maximization (Tang et al., ICNP 2016 / TKDE 2018) drops the
cardinality constraint: each seeded node costs ``c(v)`` and the objective
is ``profit(S) = sigma(S) - sum_{v in S} c(v)`` — an *unconstrained*
(non-monotone once costs bite) submodular objective.  The simple greedy
keeps seeding while the best marginal spread gain exceeds the node's
cost, which is the double-greedy-style heuristic those papers build on.

On RR samples a marginal coverage of ``Delta(v)`` elements is worth
``Delta(v) * n / theta`` expected nodes, so the stopping rule becomes
``Delta(v) * n / theta > c(v)``.  Distribution again reuses the NEWGREEDI
round structure verbatim, and the master picks by that gain with Algorithm
1's lazy queue (:class:`~repro.coverage.greedy.BucketQueue`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.network import NetworkModel
from ..core.pool import SamplePool
from ..coverage.greedy import BucketQueue
from ..coverage.newgreedi import NewGreeDiRounds
from ..graphs.digraph import DirectedGraph
from .common import sampled_stores
from .result import ApplicationResult

__all__ = ["profit_maximization"]


def profit_maximization(
    graph: DirectedGraph,
    costs: Sequence[float],
    num_machines: int,
    num_rr_sets: int,
    model: str = "ic",
    network: NetworkModel | None = None,
    seed: int = 0,
    pool: SamplePool | None = None,
) -> ApplicationResult:
    """Greedy profit-maximizing seed selection over distributed RR sets.

    Stops as soon as no node's estimated marginal spread exceeds its cost;
    the returned seed set can be empty when seeding anyone is unprofitable.
    ``objective`` reports the estimated profit
    ``n * F_R(S) - sum_{v in S} c(v)``.  ``pool`` lends a warm
    :class:`~repro.core.pool.SamplePool` built on the same graph,
    ``num_machines``, ``seed`` and ``model``; selection reads a
    ``num_rr_sets`` prefix of it, generating only what it lacks, and the
    answer equals the cold call's.
    """
    n = graph.num_nodes
    cost_arr = np.array(costs, dtype=np.float64)
    if cost_arr.shape != (n,):
        raise ValueError("costs must have one entry per node")
    if not np.all(cost_arr >= 0):  # NaN too
        raise ValueError("costs must be non-negative")

    with (
        sampled_stores(
            "profit", graph, num_machines, num_rr_sets, model, network, seed, pool
        ) as (executor, stores, metrics),
        NewGreeDiRounds(executor, stores, "profit") as rounds,
    ):
        counts = rounds.counts
        spread_per_element = n / rounds.num_elements

        # Lazy greedy on the profit gain Delta(v) * n/theta - c(v), lowest
        # id on ties: gains only fall with the marginals, and the loop
        # stops once the best gain left is not positive.
        def gain(ids: np.ndarray) -> np.ndarray:
            return counts[ids] * spread_per_element - cost_arr[ids]

        queue = BucketQueue(counts, score=gain)
        seeds: list[int] = []
        while (candidate := queue.pop_max()) is not None:
            seeds.append(candidate)
            rounds.select(candidate)

    spread_estimate = rounds.coverage * spread_per_element
    profit = spread_estimate - float(cost_arr[seeds].sum()) if seeds else 0.0
    return ApplicationResult(
        application="profit-maximization",
        seeds=seeds,
        objective=profit,
        num_rr_sets=num_rr_sets,
        metrics=metrics,
        params={
            "spread_estimate": round(spread_estimate, 2),
            "total_cost": round(float(cost_arr[seeds].sum()), 2) if seeds else 0.0,
            "num_machines": num_machines,
            "model": model,
        },
    )
