"""Distributed seed minimization.

Seed minimization (Long & Wong, ICDM 2011; Zhang et al., KDD 2014)
inverts influence maximization: given a required expected spread ``Q``,
find the *smallest* seed set achieving it.  On RR samples the requirement
``sigma(S) >= Q`` becomes a coverage threshold
``F_R(S) >= Q / n`` — a partial-cover instance the greedy solves with an
``O(ln)``-factor guarantee.

The distributed story is identical to NEWGREEDI's: the master keeps
aggregated marginals, every accepted seed triggers one map/reduce
decrement round, and the loop simply stops on the coverage threshold
instead of a seed count.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.machine import Machine
from ..cluster.metrics import COMPUTATION, GENERATION
from ..cluster.network import NetworkModel
from ..coverage.greedy import BucketQueue
from ..coverage.kernel import sparse_decrements
from ..coverage.newgreedi import SEED_BYTES, TUPLE_BYTES, gather_coverage_counts
from ..graphs.digraph import DirectedGraph
from ..ris import make_sampler
from .result import ApplicationResult

__all__ = ["seed_minimization"]


def seed_minimization(
    graph: DirectedGraph,
    required_spread: float,
    num_machines: int,
    num_rr_sets: int,
    model: str = "ic",
    network: NetworkModel | None = None,
    seed: int = 0,
    max_seeds: int | None = None,
) -> ApplicationResult:
    """Select the (greedily) smallest seed set with ``sigma(S) >= Q``.

    Parameters
    ----------
    required_spread:
        The target expected spread ``Q`` (in nodes, ``1 <= Q <= n``).
    max_seeds:
        Optional hard cap on the seed count; defaults to ``n``.

    Notes
    -----
    If even covering every coverable RR set cannot certify ``Q`` on the
    drawn samples, the loop stops once marginals hit zero and the result
    reports the spread actually certified.
    """
    n = graph.num_nodes
    if not 1.0 <= required_spread <= n:
        raise ValueError(f"required_spread must lie in [1, n], got {required_spread}")
    cap = n if max_seeds is None else max_seeds
    if cap < 1:
        raise ValueError(f"max_seeds must be >= 1, got {max_seeds}")

    sampler = make_sampler(graph, model=model)
    cluster = SimulatedCluster(num_machines, network=network, seed=seed)
    cluster.init_collections(n)
    shares = cluster.split_count(num_rr_sets)

    def generate(machine: Machine) -> None:
        machine.collection.extend(
            sampler.sample_many(shares[machine.machine_id], machine.rng)
        )

    cluster.map(GENERATION, "seedmin/generate", generate)
    counts = gather_coverage_counts(cluster, label="seedmin/init")

    def reset(machine: Machine) -> int:
        machine.state["covered"] = np.zeros(machine.collection.num_sets, dtype=bool)
        return machine.collection.num_sets

    total_elements = sum(cluster.map(COMPUTATION, "seedmin/reset", reset))
    required_coverage = int(np.ceil(required_spread / n * total_elements))

    queue = BucketQueue(counts)
    seeds: list[int] = []
    coverage = 0
    while coverage < required_coverage and len(seeds) < cap:
        candidate = queue.pop_max()
        if candidate is None:
            break
        seeds.append(candidate)
        cluster.broadcast("seedmin/seed", SEED_BYTES)

        def map_stage(machine: Machine, seed_node: int = candidate):
            return sparse_decrements(
                machine.collection, seed_node, machine.state["covered"]
            )

        responses = cluster.map(COMPUTATION, "seedmin/map", map_stage)
        cluster.gather(
            "seedmin/gather", [TUPLE_BYTES * ids.size for ids, __, __ in responses]
        )

        def reduce_stage() -> int:
            gained = 0
            for ids, decs, newly in responses:
                gained += newly
                counts[ids] -= decs
            return gained

        coverage += cluster.run_on_master("seedmin/reduce", reduce_stage)

    fraction = coverage / total_elements if total_elements else 0.0
    return ApplicationResult(
        application="seed-minimization",
        seeds=seeds,
        objective=n * fraction,
        num_rr_sets=num_rr_sets,
        metrics=cluster.metrics,
        params={
            "required_spread": required_spread,
            "achieved": round(n * fraction, 2),
            "num_machines": num_machines,
            "model": model,
        },
    )
