"""Distributed Monte-Carlo influence estimation (Section II-B context).

The paper contrasts its contribution with prior distributed *influence
estimation* work (Lucier et al., KDD 2015; Nguyen et al., SIGMETRICS
2017): estimating ``sigma(S)`` for a *given* seed set parallelises
trivially — shard the simulations, average the results — but cannot drive
seed *selection*, where candidate sets appear dynamically.

This module implements that baseline service.  It is used by the test
suite as yet another independent estimator to validate seeds against, and
it demonstrates concretely why it does not compose into a selection
algorithm: each new candidate set requires a fresh full pass of cascades.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..cluster.cluster import SimulatedCluster, split_count
from ..cluster.executor import GatherPhase, MapPhase, MasterPhase, SimulatedExecutor
from ..cluster.network import NetworkModel
from ..diffusion.base import DiffusionModel, get_model
from ..diffusion.spread import SpreadEstimate
from ..graphs.digraph import DirectedGraph

__all__ = ["distributed_spread_estimate"]


def distributed_spread_estimate(
    graph: DirectedGraph,
    seeds: Iterable[int],
    num_machines: int,
    num_samples: int,
    model: DiffusionModel | str = "ic",
    network: NetworkModel | None = None,
    seed: int = 0,
) -> SpreadEstimate:
    """Estimate ``sigma(seeds)`` with cascades sharded over machines.

    Each machine simulates its share of the ``num_samples`` cascades with
    its own generator — machine ``m``'s is keyed ``(seed, m + 1)`` — and
    responds with ``(sum, sum_of_squares, count)``;
    the master merges the moments into a mean and standard error.  The
    estimate is statistically identical to
    :func:`repro.diffusion.spread.estimate_spread` with the same total
    sample count.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if isinstance(model, str):
        model = get_model(model)
    seed_list = list(seeds)
    executor = SimulatedExecutor(SimulatedCluster(num_machines, network=network, seed=seed))
    shares = split_count(num_samples, num_machines)

    def simulate(mid: int) -> tuple[float, float, int]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(mid + 1,)))
        count = shares[mid]
        total = 0.0
        total_sq = 0.0
        for __ in range(count):
            size = float(model.simulate(graph, seed_list, rng).size)
            total += size
            total_sq += size * size
        return total, total_sq, count

    moments = executor.run_phase(MapPhase("estimate/simulate", simulate)).results
    # Three 8-byte numbers per machine: the whole response.
    executor.run_phase(GatherPhase("estimate/gather", (24,) * num_machines))

    def reduce_moments() -> SpreadEstimate:
        total = sum(m[0] for m in moments)
        total_sq = sum(m[1] for m in moments)
        count = sum(m[2] for m in moments)
        mean = total / count
        if count > 1:
            variance = max((total_sq - count * mean * mean) / (count - 1), 0.0)
            stderr = float(np.sqrt(variance / count))
        else:
            stderr = 0.0
        return SpreadEstimate(mean=mean, stderr=stderr, num_samples=count)

    return executor.run_phase(MasterPhase("estimate/reduce", reduce_moments)).results
