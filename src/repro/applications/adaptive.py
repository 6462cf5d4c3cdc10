"""Distributed adaptive influence maximization (full-adoption feedback).

The paper's related work points to the adaptive setting (Han et al., VLDB
2018; Huang et al., VLDB J. 2020): seeds are selected *one at a time*, and
after each selection the advertiser observes the realized cascade before
choosing the next seed.  Under full-adoption feedback the observed nodes
can never be influenced again, so each round works on the *residual*
graph with all previously activated nodes removed.

The AdaptGreedy pattern distributes exactly like DIIMM's inner loop:

1. generate fresh RR sets on the residual graph across machines
   (distributed RIS, rooted only at still-inactive nodes);
2. pick the single node with the largest aggregated coverage (a ``k=1``
   NEWGREEDI call);
3. observe the seed's true cascade (one forward simulation on the ground
   truth), shrink the residual graph, and repeat.

Because the graph shrinks between rounds, samples cannot be reused — the
per-round regeneration *is* the adaptive setting's cost, which is why the
paper's distributed sampling matters even more here.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import SimulatedCluster, split_count
from ..cluster.executor import MapPhase, SimulatedExecutor
from ..cluster.metrics import GENERATION
from ..cluster.network import NetworkModel
from ..coverage.newgreedi import newgreedi
from ..diffusion.base import get_model
from ..graphs.digraph import DirectedGraph
from ..ris import make_sampler
from ..ris.flat import FlatRRCollection, append_batch
from ..ris.rrset import sample_set_range
from .result import ApplicationResult
from .targeted import TargetedSampler

__all__ = ["adaptive_influence_maximization"]


def adaptive_influence_maximization(
    graph: DirectedGraph,
    k: int,
    num_machines: int,
    rr_sets_per_round: int,
    model: str = "ic",
    network: NetworkModel | None = None,
    seed: int = 0,
) -> ApplicationResult:
    """Adaptively select ``k`` seeds with full-adoption feedback.

    Parameters
    ----------
    rr_sets_per_round:
        RR sets regenerated (across machines) for each seed decision.
    seed:
        Drives both the sampling and the simulated ground-truth cascades,
        so a run is fully reproducible: round ``r``'s RR set ``i`` on
        machine ``m`` is drawn at the coordinates
        ``(seed, "adaptive-r", m, i)``.

    Returns
    -------
    ApplicationResult
        ``seeds`` in selection order; ``objective`` is the *realized*
        number of activated nodes (not an estimate — adaptivity observes
        the true cascades).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rr_sets_per_round < 1:
        raise ValueError(f"rr_sets_per_round must be >= 1, got {rr_sets_per_round}")
    diffusion = get_model(model)
    reality_rng = np.random.default_rng(seed + 777)

    activated: set[int] = set()
    seeds: list[int] = []
    residual = graph
    executor = SimulatedExecutor(SimulatedCluster(num_machines, network=network, seed=seed))
    shares = split_count(rr_sets_per_round, num_machines)

    for round_idx in range(k):
        inactive = [v for v in range(graph.num_nodes) if v not in activated]
        if not inactive:
            break
        sampler = TargetedSampler(make_sampler(residual, model=model), inactive)
        # A new residual graph every round: nothing a pool could keep.
        stores = [FlatRRCollection(graph.num_nodes) for __ in range(num_machines)]

        label = f"adaptive-{round_idx}"

        def generate(mid: int) -> None:
            if shares[mid]:
                batch = sample_set_range(sampler, seed, mid, range(shares[mid]), label)
                append_batch(stores[mid], batch)

        executor.run_phase(MapPhase(f"{label}/generate", generate, category=GENERATION))
        selection = newgreedi(executor, 1, stores=stores, label=f"{label}/newgreedi")
        chosen = selection.seeds[0]
        seeds.append(chosen)

        # Observe the realized cascade on the residual ground truth.
        cascade = diffusion.simulate(residual, [chosen], reality_rng)
        newly = set(int(v) for v in cascade) - activated
        activated.update(newly)
        residual = residual.without_nodes(list(activated))

    return ApplicationResult(
        application="adaptive-influence-maximization",
        seeds=seeds,
        objective=float(len(activated)),
        num_rr_sets=rr_sets_per_round * len(seeds),
        metrics=executor.metrics,
        params={
            "k": k,
            "num_machines": num_machines,
            "rr_sets_per_round": rr_sets_per_round,
            "model": model,
        },
    )
