"""RR-set statistics: EPS, EPT and the Lemma 3 identity.

The paper's complexity analysis is driven by two expectations:

* **EPS** — the expected RR-set *size*.  Lemma 3 shows
  ``EPS = (1/n) * sum_v sigma({v})``: the average singleton spread.
* **EPT** — the expected number of edges examined while generating one RR
  set, ``E[w(R)]``, which dominates generation time.

:func:`empirical_eps` / :func:`empirical_ept` estimate the two from drawn
samples; :func:`lemma3_check` compares empirical EPS against the
Monte-Carlo average singleton spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..diffusion.base import DiffusionModel
from ..diffusion.spread import singleton_spreads
from ..graphs.digraph import DirectedGraph
from .rrset import RRSample, RRSampler

__all__ = [
    "empirical_eps",
    "empirical_ept",
    "RRSetStatistics",
    "collect_statistics",
    "lemma3_check",
]


def empirical_eps(samples: Sequence[RRSample]) -> float:
    """Mean RR-set size of the samples."""
    if not samples:
        raise ValueError("need at least one sample")
    return float(np.mean([len(sample) for sample in samples]))


def empirical_ept(samples: Sequence[RRSample]) -> float:
    """Mean number of edges examined per sample."""
    if not samples:
        raise ValueError("need at least one sample")
    return float(np.mean([sample.edges_examined for sample in samples]))


@dataclass(frozen=True)
class RRSetStatistics:
    """Summary statistics of a batch of RR sets (Table IV columns)."""

    num_sets: int
    total_size: int
    eps: float
    ept: float
    max_size: int

    @classmethod
    def from_samples(cls, samples: Sequence[RRSample]) -> "RRSetStatistics":
        sizes = np.asarray([len(sample) for sample in samples], dtype=np.int64)
        edges = np.asarray([sample.edges_examined for sample in samples], dtype=np.int64)
        return cls(
            num_sets=len(samples),
            total_size=int(sizes.sum()),
            eps=float(sizes.mean()),
            ept=float(edges.mean()),
            max_size=int(sizes.max()),
        )

    @classmethod
    def from_batch(cls, batch) -> "RRSetStatistics":
        """Summarise a :class:`~repro.ris.rrset.FlatBatch` directly.

        Works entirely on the CSR arrays — the batch-sampler counterpart
        of :meth:`from_samples`, with identical numbers for matching
        draws.
        """
        if batch.count == 0:
            raise ValueError("need at least one RR set in the batch")
        sizes = np.diff(batch.offsets)
        return cls(
            num_sets=batch.count,
            total_size=int(sizes.sum()),
            eps=float(sizes.mean()),
            ept=float(batch.edges_examined.mean()),
            max_size=int(sizes.max()),
        )


def collect_statistics(
    sampler: RRSampler,
    count: int,
    rng: np.random.Generator,
) -> RRSetStatistics:
    """Draw ``count`` RR sets and summarise them."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return RRSetStatistics.from_samples(sampler.sample_many(count, rng))


def lemma3_check(
    graph: DirectedGraph,
    sampler: RRSampler,
    model: DiffusionModel,
    num_rr_sets: int,
    num_mc_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Return ``(empirical EPS, MC average singleton spread)``.

    Lemma 3 says the two agree in expectation; tests assert they match
    within sampling noise.
    """
    samples = sampler.sample_many(num_rr_sets, rng)
    eps = empirical_eps(samples)
    spreads = singleton_spreads(graph, model, num_mc_samples, rng)
    return eps, float(spreads.mean())
