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
round structure verbatim.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.machine import Machine
from ..cluster.metrics import COMPUTATION, GENERATION
from ..cluster.network import NetworkModel
from ..coverage.kernel import sparse_decrements
from ..coverage.newgreedi import SEED_BYTES, TUPLE_BYTES, gather_coverage_counts
from ..graphs.digraph import DirectedGraph
from ..ris import make_sampler
from .common import prepare_cluster
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
    cluster: SimulatedCluster | None = None,
    collections: Sequence | None = None,
) -> ApplicationResult:
    """Greedy profit-maximizing seed selection over distributed RR sets.

    Stops as soon as no node's estimated marginal spread exceeds its cost;
    the returned seed set can be empty when seeding anyone is unprofitable.
    ``objective`` reports the estimated profit
    ``n * F_R(S) - sum_{v in S} c(v)``.  ``cluster`` lends a pre-built
    cluster; ``collections`` attaches pre-generated per-machine stores
    (e.g. warm-pool prefix views) and skips generation, with
    ``num_rr_sets`` taken from their actual total size.
    """
    n = graph.num_nodes
    cost_arr = np.asarray(list(costs), dtype=np.float64)
    if cost_arr.size != n:
        raise ValueError("costs must have one entry per node")
    if np.any(cost_arr < 0):
        raise ValueError("costs must be non-negative")

    cluster = prepare_cluster(graph, num_machines, network, seed, cluster, collections)
    if collections is None:
        sampler = make_sampler(graph, model=model)
        shares = cluster.split_count(num_rr_sets)

        def generate(machine: Machine) -> None:
            machine.collection.extend(
                sampler.sample_many(shares[machine.machine_id], machine.rng)
            )

        cluster.map(GENERATION, "profit/generate", generate)
    else:
        num_rr_sets = sum(store.num_sets for store in collections)
    counts = gather_coverage_counts(cluster, label="profit/init")

    def reset(machine: Machine) -> int:
        machine.state["covered"] = np.zeros(machine.collection.num_sets, dtype=bool)
        return machine.collection.num_sets

    total_elements = sum(cluster.map(COMPUTATION, "profit/reset", reset))
    if total_elements == 0:
        raise ValueError("num_rr_sets must be >= 1")
    spread_per_element = n / total_elements

    # Lazy greedy on the profit gain Delta(v) * n/theta - c(v): marginals
    # only decrease, so a stale heap top re-files with its fresh gain and
    # the loop stops as soon as the best fresh gain is non-positive.
    def gain_of(node: int) -> float:
        return float(counts[node]) * spread_per_element - float(cost_arr[node])

    heap = [(-gain_of(v), v) for v in range(n) if gain_of(v) > 0]
    heapq.heapify(heap)
    recorded = {v: -g for g, v in heap}

    seeds: list[int] = []
    coverage = 0
    while heap:
        neg_gain, candidate = heapq.heappop(heap)
        fresh = gain_of(candidate)
        if fresh <= 0:
            continue
        if fresh < recorded[candidate] - 1e-12:
            recorded[candidate] = fresh
            heapq.heappush(heap, (-fresh, candidate))
            continue
        seeds.append(candidate)
        cluster.broadcast("profit/seed", SEED_BYTES)

        def map_stage(machine: Machine, seed_node: int = candidate):
            return sparse_decrements(
                machine.collection, seed_node, machine.state["covered"]
            )

        responses = cluster.map(COMPUTATION, "profit/map", map_stage)
        cluster.gather(
            "profit/gather", [TUPLE_BYTES * ids.size for ids, __, __ in responses]
        )

        def reduce_stage() -> int:
            gained = 0
            for ids, decs, newly in responses:
                gained += newly
                counts[ids] -= decs
            return gained

        coverage += cluster.run_on_master("profit/reduce", reduce_stage)

    spread_estimate = coverage * spread_per_element
    profit = spread_estimate - float(cost_arr[seeds].sum()) if seeds else 0.0
    return ApplicationResult(
        application="profit-maximization",
        seeds=seeds,
        objective=profit,
        num_rr_sets=num_rr_sets,
        metrics=cluster.metrics,
        params={
            "spread_estimate": round(spread_estimate, 2),
            "total_cost": round(float(cost_arr[seeds].sum()), 2) if seeds else 0.0,
            "num_machines": num_machines,
            "model": model,
        },
    )
