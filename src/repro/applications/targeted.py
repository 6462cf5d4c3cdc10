"""Distributed targeted influence maximization.

The paper's conclusion lists targeted influence maximization (Li et al.,
VLDB 2015) among the applications its distributed machinery accelerates:
only a subset ``T`` of users matters to the advertiser, and the objective
is the expected number of *targeted* users activated.

RIS adapts by rooting RR sets at targeted nodes only: for a root drawn
uniformly from ``T``, Lemma 1 becomes
``sigma_T(S) = |T| * Pr[S covers R]``.  Everything downstream — the
distributed generation, the element-distributed NEWGREEDI selection — is
unchanged, which is precisely why the paper's claim holds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..cluster.network import NetworkModel
from ..core.pool import SamplePool
from ..coverage.newgreedi import newgreedi
from ..graphs.digraph import DirectedGraph
from ..ris import make_sampler
from ..ris.rrset import FlatBatch, RRSample, RRSampler
from ..ris.vectorized import _mulhi
from .common import sampled_stores
from .result import ApplicationResult

__all__ = ["TargetedSampler", "targeted_influence_maximization"]


class TargetedSampler(RRSampler):
    """Wraps a keyed kernel, drawing roots uniformly from the target set.

    Set key ``K``'s root is ``targets[mulhi(K, |T|)]`` and its coins are
    the base kernel's for ``K`` (:mod:`repro.ris.vectorized`, "RNG
    contract"), so targeted sets are coordinate-keyed like every other
    draw of :func:`~repro.ris.rrset.sample_set_range`.
    """

    def __init__(self, base: RRSampler, targets: Sequence[int]) -> None:
        super().__init__(base.graph)
        self._base = base
        self._targets = np.unique(np.asarray(list(targets), dtype=np.int64))
        if self._targets.size == 0:
            raise ValueError("target set must not be empty")
        if self._targets[0] < 0 or self._targets[-1] >= base.graph.num_nodes:
            raise ValueError("target ids must lie in [0, num_nodes)")

    @property
    def num_targets(self) -> int:
        return int(self._targets.size)

    def sample_keys(self, keys) -> FlatBatch:
        """One RR set per 64-bit set key, rooted in the target set."""
        keys = np.asarray(keys, dtype=np.uint64)
        return self._base._draw(keys, self._targets[_mulhi(keys, self._targets.size)])

    def sample_batch(self, rng: np.random.Generator, count: int) -> FlatBatch:
        """Draw ``count`` sets keyed by ``rng``'s next ``count`` words."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self.sample_keys(rng.bit_generator.random_raw(count))

    def sample(self, rng: np.random.Generator) -> RRSample:
        batch = self.sample_batch(rng, 1)
        return RRSample(
            nodes=batch.nodes, root=int(batch.roots[0]), edges_examined=int(batch.edges_examined[0])
        )


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
        Optional lent warm :class:`~repro.core.pool.SamplePool` whose
        sampler is a :class:`TargetedSampler` over the same target set,
        built on the same graph, ``num_machines``, ``seed`` and ``model``;
        selection reads a ``num_rr_sets`` prefix of it, generating only what
        it lacks, and the answer equals the cold call's.  The caller keeps
        ownership.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sampler = TargetedSampler(make_sampler(graph, model=model), list(targets))
    with sampled_stores(
        "targeted", graph, num_machines, num_rr_sets, model, network, seed, pool, sampler
    ) as (executor, stores, metrics):
        selection = newgreedi(executor, k, stores=stores, label="targeted/newgreedi")
    return ApplicationResult(
        application="targeted-influence-maximization",
        seeds=selection.seeds,
        objective=sampler.num_targets * selection.fraction,
        num_rr_sets=num_rr_sets,
        metrics=metrics,
        params={
            "k": k,
            "num_machines": num_machines,
            "num_targets": sampler.num_targets,
            "model": model,
        },
    )
