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

from ..cluster.network import NetworkModel
from ..coverage.greedy import BucketQueue
from ..coverage.newgreedi import NewGreeDiRounds
from ..graphs.digraph import DirectedGraph
from .common import sampled_stores
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

    with (
        sampled_stores(
            "seedmin", graph, num_machines, num_rr_sets, model, network, seed, pool=None
        ) as (executor, stores, metrics),
        NewGreeDiRounds(executor, stores, "seedmin") as rounds,
    ):
        required_coverage = int(np.ceil(required_spread / n * rounds.num_elements))

        queue = BucketQueue(rounds.counts)
        seeds: list[int] = []
        while rounds.coverage < required_coverage and len(seeds) < cap:
            candidate = queue.pop_max()
            if candidate is None:
                break
            seeds.append(candidate)
            rounds.select(candidate)

    achieved = n * (rounds.coverage / rounds.num_elements)
    return ApplicationResult(
        application="seed-minimization",
        seeds=seeds,
        objective=achieved,
        num_rr_sets=num_rr_sets,
        metrics=metrics,
        params={
            "required_spread": required_spread,
            "achieved": round(achieved, 2),
            "num_machines": num_machines,
            "model": model,
        },
    )
