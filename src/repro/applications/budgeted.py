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
the master simply ranks by ``Delta(v) / c(v)`` instead of ``Delta(v)``.
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
    cluster: SimulatedCluster | None = None,
    collections: Sequence | None = None,
) -> ApplicationResult:
    """Greedy budgeted seed selection over distributed RR sets.

    Parameters
    ----------
    costs:
        Per-node seeding cost, length ``n``; all costs must be positive.
    budget:
        Total budget ``B``.
    cluster:
        Optional lent cluster to run on (must have ``num_machines``
        machines); the caller keeps ownership of its RNG streams and
        metrics.
    collections:
        Optional pre-generated per-machine RR collections (one per
        machine, e.g. warm-pool prefix views); generation is skipped and
        ``num_rr_sets`` is taken from their actual total size.

    Returns
    -------
    ApplicationResult
        ``seeds`` may be any size with total cost within budget;
        ``objective`` is the RIS spread estimate ``n * F_R(S)``.
    """
    cost_arr = np.asarray(list(costs), dtype=np.float64)
    if cost_arr.size != graph.num_nodes:
        raise ValueError("costs must have one entry per node")
    if np.any(cost_arr <= 0):
        raise ValueError("all costs must be positive")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    cluster = prepare_cluster(graph, num_machines, network, seed, cluster, collections)
    if collections is None:
        sampler = make_sampler(graph, model=model)
        shares = cluster.split_count(num_rr_sets)

        def generate(machine: Machine) -> None:
            machine.collection.extend(
                sampler.sample_many(shares[machine.machine_id], machine.rng)
            )

        cluster.map(GENERATION, "budgeted/generate", generate)
    else:
        num_rr_sets = sum(store.num_sets for store in collections)
    counts = gather_coverage_counts(cluster, label="budgeted/init")

    def reset(machine: Machine) -> int:
        machine.state["covered"] = np.zeros(machine.collection.num_sets, dtype=bool)
        return machine.collection.num_sets

    total_elements = sum(cluster.map(COMPUTATION, "budgeted/reset", reset))

    # Cost-effective lazy greedy: a max-heap on ratio with lazy
    # re-evaluation (marginals only decrease, so a stale top is re-pushed
    # with its fresh ratio).
    heap = [
        (-counts[v] / cost_arr[v], v)
        for v in range(graph.num_nodes)
        if counts[v] > 0 and cost_arr[v] <= budget
    ]
    heapq.heapify(heap)
    heap_counts = {v: int(counts[v]) for __, v in heap}

    seeds: list[int] = []
    remaining = float(budget)
    coverage = 0

    def run_map_round(seed_node: int) -> int:
        cluster.broadcast("budgeted/seed", SEED_BYTES)

        def map_stage(machine: Machine):
            return sparse_decrements(
                machine.collection, seed_node, machine.state["covered"]
            )

        responses = cluster.map(COMPUTATION, "budgeted/map", map_stage)
        cluster.gather(
            "budgeted/gather", [TUPLE_BYTES * ids.size for ids, __, __ in responses]
        )

        def reduce_stage() -> int:
            gained = 0
            for ids, decs, newly in responses:
                gained += newly
                counts[ids] -= decs
            return gained

        return cluster.run_on_master("budgeted/reduce", reduce_stage)

    while heap:
        neg_ratio, candidate = heapq.heappop(heap)
        if candidate in seeds or cost_arr[candidate] > remaining:
            continue
        current = int(counts[candidate])
        if current <= 0:
            continue
        recorded = heap_counts.get(candidate, current)
        if current < recorded:
            # Stale ratio: re-file with the fresh marginal.
            heap_counts[candidate] = current
            heapq.heappush(heap, (-current / cost_arr[candidate], candidate))
            continue
        seeds.append(candidate)
        remaining -= float(cost_arr[candidate])
        coverage += run_map_round(candidate)

    # Classical safeguard: compare against the best affordable singleton.
    affordable = np.flatnonzero(cost_arr <= budget)
    if affordable.size:
        initial_counts = gather_coverage_counts(cluster, label="budgeted/single")
        best_single = int(affordable[np.argmax(initial_counts[affordable])])
        single_cov = sum(
            m.collection.coverage_of([best_single]) for m in cluster.machines
        )
        if single_cov > coverage:
            seeds = [best_single]
            coverage = single_cov

    fraction = coverage / total_elements if total_elements else 0.0
    return ApplicationResult(
        application="budgeted-influence-maximization",
        seeds=seeds,
        objective=graph.num_nodes * fraction,
        num_rr_sets=num_rr_sets,
        metrics=cluster.metrics,
        params={
            "budget": budget,
            "spent": round(float(cost_arr[seeds].sum()), 4) if seeds else 0.0,
            "num_machines": num_machines,
            "model": model,
        },
    )
