"""Distributed targeted influence maximization.

The paper's conclusion lists targeted influence maximization (Li et al.,
VLDB 2015) among the applications its distributed machinery accelerates:
only a subset ``T`` of users matters to the advertiser, and the objective
is the expected number of *targeted* users activated.

RIS adapts by rooting RR sets at targeted nodes only: for a root drawn
uniformly from ``T``, Lemma 1 becomes
``sigma_T(S) = |T| * Pr[S covers R]``.  Only the root draw differs — set
key ``K``'s root is ``T[mulhi(K, |T|)]`` (a pool's ``roots``) — and
everything downstream — the distributed generation, the
element-distributed NEWGREEDI selection — is unchanged, which is
precisely why the paper's claim holds.
"""

from __future__ import annotations

from typing import Iterable

from ..cluster.network import NetworkModel
from ..core.pool import SamplePool, as_roots
from ..coverage.newgreedi import newgreedi
from ..graphs.digraph import DirectedGraph
from .common import sampled_stores
from .result import ApplicationResult

__all__ = ["targeted_influence_maximization"]


def targeted_influence_maximization(
    graph: DirectedGraph,
    targets: Iterable[int],
    k: int,
    num_machines: int,
    num_rr_sets: int,
    model: str = "ic",
    network: NetworkModel | None = None,
    seed: int = 0,
    pool: SamplePool | None = None,
) -> ApplicationResult:
    """Select ``k`` seeds maximising the targeted influence spread.

    Parameters
    ----------
    graph:
        Weighted directed graph.
    targets:
        The user subset whose activation counts.
    k:
        Seed-set size.
    num_machines:
        Simulated machine count.
    num_rr_sets:
        Total targeted RR sets to generate (fixed-budget variant; the
        IMM-style adaptive schedule of :func:`repro.core.diimm.diimm`
        applies unchanged if a guarantee is required).
    pool:
        Optional lent warm :class:`~repro.core.pool.SamplePool` rooted in
        the same target set (``roots=targets``), built on the same graph,
        ``num_machines``, ``seed`` and ``model``;
        selection reads a ``num_rr_sets`` prefix of it, generating only what
        it lacks, and the answer equals the cold call's.  The caller keeps
        ownership.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    roots = as_roots(targets, graph.num_nodes)
    with sampled_stores(
        "targeted", graph, num_machines, num_rr_sets, model, network, seed, pool, roots
    ) as (executor, stores, metrics):
        selection = newgreedi(executor, k, stores=stores, label="targeted/newgreedi")
    return ApplicationResult(
        application="targeted-influence-maximization",
        seeds=selection.seeds,
        objective=roots.size * selection.fraction,
        num_rr_sets=num_rr_sets,
        metrics=metrics,
        params={
            "k": k,
            "num_machines": num_machines,
            "num_targets": int(roots.size),
            "model": model,
        },
    )
