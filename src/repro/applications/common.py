"""Shared assembly for the fixed-budget applications.

Budgeted, profit, targeted and seed minimization all select on a fixed
number of RR sets and all obtain them the same way: from a
:class:`~repro.core.pool.SamplePool` — a private one for a cold call, the
caller's resident one for a warm call.  Cold and warm are one code path,
which is what keeps a warm answer bit-identical to the cold run.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, List, Tuple

from ..cluster.cluster import split_count
from ..cluster.executor import Executor
from ..cluster.metrics import RunMetrics
from ..cluster.network import NetworkModel
from ..core.pool import SamplePool
from ..graphs.digraph import DirectedGraph
from ..ris.flat import FlatPrefixView
from ..ris.rrset import RRSampler

__all__ = ["sampled_stores"]


@contextmanager
def sampled_stores(
    label: str,
    graph: DirectedGraph,
    num_machines: int,
    num_rr_sets: int,
    model: str,
    network: NetworkModel | None,
    seed: int,
    pool: SamplePool | None,
    sampler: RRSampler | None = None,
) -> Iterator[Tuple[Executor, List[FlatPrefixView], RunMetrics]]:
    """Yield ``(executor, stores, metrics)`` over ``num_rr_sets`` RR sets.

    With ``pool=None`` a private pool is built on
    ``SimulatedCluster(num_machines, network, seed)`` (drawing with
    ``sampler`` when given, else ``model``'s keyed kernel) and
    closed on exit; a lent pool must draw the same coordinates
    (:meth:`SamplePool.check_streams
    <repro.core.pool.SamplePool.check_streams>`) and keeps its own network
    model and sampler.  Either way the pool is topped up to the
    per-machine shares of ``num_rr_sets`` (``{label}/generate``; a pool
    already that large draws nothing), ``stores`` are prefix views of
    exactly those shares, and ``metrics`` meters this call alone, under
    the pool's query lock.
    """
    if num_rr_sets < 1:
        raise ValueError(f"num_rr_sets must be >= 1, got {num_rr_sets}")
    with ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(
                SamplePool(
                    graph, num_machines, seed=seed, model=model, network=network, sampler=sampler
                )
            )
        else:
            pool.check_streams(graph, num_machines, seed, model)
        shares = split_count(num_rr_sets, pool.num_machines)
        metrics = stack.enter_context(pool.query_metrics())
        pool.ensure("main", shares, label=f"{label}/generate")
        stores = [
            FlatPrefixView(store, share) for store, share in zip(pool.stores("main"), shares)
        ]
        yield pool.executor, stores, metrics
