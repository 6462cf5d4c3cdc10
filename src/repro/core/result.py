"""Result container shared by all influence-maximization algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..cluster.metrics import RunMetrics

__all__ = ["IMResult"]


@dataclass
class IMResult:
    """Outcome of one influence-maximization run.

    Attributes
    ----------
    seeds:
        The selected size-``k`` seed set.
    estimated_spread:
        ``n * F_R(S)``: the RIS estimate of the seed set's influence.
    num_rr_sets:
        Total number of RR sets generated (``theta``), across machines.
    total_rr_size:
        Sum of RR-set sizes (Table IV's "total size" column).
    total_edges_examined:
        Sum of ``w(R)``; the generation-work measure.
    lower_bound:
        The OPT lower bound LB found by the search phase.
    search_rounds:
        Number of lower-bound search iterations executed.
    metrics:
        Timing/traffic breakdown (generation / computation / communication).
    algorithm, model:
        Labels for reporting.
    params:
        Free-form scalar parameters (k, eps, delta, num_machines, ...).
    """

    seeds: List[int]
    estimated_spread: float
    num_rr_sets: int
    total_rr_size: int
    total_edges_examined: int
    lower_bound: float
    search_rounds: int
    metrics: RunMetrics
    algorithm: str
    model: str
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def breakdown(self) -> Dict[str, float]:
        """Shortcut to the Fig 5-9 time breakdown."""
        return self.metrics.breakdown()

    def summary_row(self) -> Dict[str, object]:
        """Flat dict suitable for printing experiment tables."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "model": self.model,
            "num_rr_sets": self.num_rr_sets,
            "total_rr_size": self.total_rr_size,
            "estimated_spread": round(self.estimated_spread, 2),
            "lower_bound": round(self.lower_bound, 2),
        }
        row.update({key: round(value, 4) for key, value in self.breakdown.items()})
        row.update(self.params)
        return row
