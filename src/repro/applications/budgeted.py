"""Distributed budgeted influence maximization.

Budgeted IM (Bian et al., VLDB 2020; Leskovec et al., KDD 2007) attaches a
cost ``c(v)`` to every node and replaces the cardinality constraint by a
budget ``B``: maximise the spread subject to ``sum_{v in S} c(v) <= B``.

The standard treatment runs *cost-effective lazy greedy*: each iteration
picks the affordable node with the largest marginal-coverage-per-cost
ratio; the classical guarantee comes from taking the better of this
solution and the best single affordable node.  Distribution-wise nothing
changes: marginal coverages still live as aggregated counts at the master
and are maintained by exactly NEWGREEDI's map/reduce decrement rounds —
the master simply ranks by ``Delta(v) / c(v)`` instead of ``Delta(v)``,
with Algorithm 1's lazy queue (:class:`~repro.coverage.greedy.BucketQueue`).
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

__all__ = ["budgeted_influence_maximization"]


def budgeted_influence_maximization(
    graph: DirectedGraph,
    costs: Sequence[float],
    budget: float,
    num_machines: int,
    num_rr_sets: int,
    model: str = "ic",
    network: NetworkModel | None = None,
    seed: int = 0,
    pool: SamplePool | None = None,
) -> ApplicationResult:
    """Greedy budgeted seed selection over distributed RR sets.

    Parameters
    ----------
    costs:
        Per-node seeding cost, length ``n``; all costs must be positive.
    budget:
        Total budget ``B``.
    pool:
        Optional lent warm :class:`~repro.core.pool.SamplePool` built on
        the same graph, ``num_machines``, ``seed`` and ``model``; selection
        reads a ``num_rr_sets`` prefix of it, generating only what it lacks,
        and the answer equals the cold call's.  The caller keeps ownership.

    Returns
    -------
    ApplicationResult
        ``seeds`` may be any size with total cost within budget;
        ``objective`` is the RIS spread estimate ``n * F_R(S)``.
    """
    cost_arr = np.array(costs, dtype=np.float64)
    if cost_arr.shape != (graph.num_nodes,):
        raise ValueError("costs must have one entry per node")
    if not np.all(cost_arr > 0):  # NaN too
        raise ValueError("all costs must be positive")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    with (
        sampled_stores(
            "budgeted", graph, num_machines, num_rr_sets, model, network, seed, pool
        ) as (executor, stores, metrics),
        NewGreeDiRounds(executor, stores, "budgeted") as rounds,
    ):
        counts = rounds.counts
        # A node's initial count *is* its singleton coverage: kept for the
        # safeguard below, which therefore needs no second gather.
        singleton = counts.copy()

        # Cost-effective lazy greedy: the queue ranks by Delta(v) / c(v),
        # lowest id on ties.  A node the budget left cannot pay for scores
        # zero and leaves the queue for good, since that budget only falls.
        remaining = float(budget)

        def ratio(ids: np.ndarray) -> np.ndarray:
            node_costs = cost_arr[ids]
            return np.where(node_costs <= remaining, counts[ids] / node_costs, 0.0)

        queue = BucketQueue(counts, score=ratio)
        seeds: list[int] = []
        while (candidate := queue.pop_max()) is not None:
            seeds.append(candidate)
            remaining -= float(cost_arr[candidate])
            rounds.select(candidate)

    # Classical safeguard: compare against the best affordable singleton.
    coverage = rounds.coverage
    affordable = np.flatnonzero(cost_arr <= budget)
    if affordable.size:
        best_single = int(affordable[np.argmax(singleton[affordable])])
        if singleton[best_single] > coverage:
            seeds = [best_single]
            coverage = int(singleton[best_single])

    return ApplicationResult(
        application="budgeted-influence-maximization",
        seeds=seeds,
        objective=graph.num_nodes * (coverage / rounds.num_elements),
        num_rr_sets=num_rr_sets,
        metrics=metrics,
        params={
            "budget": budget,
            "spent": round(float(cost_arr[seeds].sum()), 4) if seeds else 0.0,
            "num_machines": num_machines,
            "model": model,
        },
    )
