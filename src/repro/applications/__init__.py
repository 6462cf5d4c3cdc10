"""Influence-based applications accelerated by the distributed machinery.

The paper's conclusion (Section VI) claims its distributed RIS +
NEWGREEDI approach extends beyond plain influence maximization to the
greedy algorithms of several influence-based applications.  This package
substantiates the claim for four of them:

* :func:`targeted_influence_maximization` — only a target subset counts;
* :func:`budgeted_influence_maximization` — per-node costs, total budget;
* :func:`seed_minimization` — fewest seeds reaching a required spread;
* :func:`profit_maximization` — spread benefit minus seeding cost.

Each reuses the same distributed building blocks: a sample pool's
per-machine RR collections, master-side aggregated marginals,
NEWGREEDI's one map/reduce decrement round (``NewGreeDiRounds``), and
Algorithm 1's lazy pick queue (``BucketQueue``) ranking by the
application's own score.
"""

from .adaptive import adaptive_influence_maximization
from .budgeted import budgeted_influence_maximization
from .profit import profit_maximization
from .result import ApplicationResult
from .seedmin import seed_minimization
from .targeted import targeted_influence_maximization

__all__ = [
    "ApplicationResult",
    "targeted_influence_maximization",
    "budgeted_influence_maximization",
    "seed_minimization",
    "profit_maximization",
    "adaptive_influence_maximization",
]
