"""The warm influence service over shared sample pools.

An :class:`InfluenceService` owns one :class:`~repro.core.pool.SamplePool`
per distinct sample family it has needed so far — the distributed
cluster-wide pool serving DIIMM, D-SSA, D-SUBSIM, D-OPIM-C and the
fixed-budget applications, the one-machine pool serving the IMM baseline (the
``l = 1`` run), and one targeted pool per distinct target set — and
routes each query to the right pool:

* **Algorithm queries** (``imm``, ``diimm``, ``dssa``, ``dsubsim``,
  ``dopimc``) run the normal :class:`~repro.core.driver.RoundDriver`
  stopping rule against prefix views
  of the pool's collections, topping the pool up only when the query's
  accuracy parameters push theta past what previous queries generated.
* **Application queries** (``budgeted``, ``profit``, ``targeted``) are
  fixed-budget: the service lends the application its pool (``pool=``),
  and the application tops it up to the per-machine shares of
  ``num_rr_sets`` and selects on prefix views — the very code its cold
  call runs on a private pool.

Either way the answer is bit-identical to the cold entry point with the
same parameters — the correctness anchor ``tests/serve`` pins.

Results are memoized in an LRU cache keyed by ``(query fingerprint,
pool signature)``; the signature carries both the pool's collection
sizes and its update epoch, so repeated queries that neither grow nor
repair the pool are answered without touching the cluster at all.
:meth:`InfluenceService.cached` is that read alone; it takes no pool
lock, so the front-end answers hits on its event loop, never behind a
query in flight.

Dynamic serving
---------------
A service started with ``dynamic=True`` wraps its graph in a
:class:`~repro.graphs.digraph.VersionedGraph`; every resident RR set is
keyed by its coordinates (:func:`~repro.ris.rrset.sample_set_range`),
hence individually regenerable.  :meth:`InfluenceService.apply_update`
lands a :class:`~repro.graphs.digraph.GraphDelta` on the shared graph, repairs
every resident pool in place (:meth:`SamplePool.repair
<repro.core.pool.SamplePool.repair>`), bumps :attr:`graph_version`, and
evicts exactly the cache entries of pools whose collections were
rewritten — untouched pools keep serving their memoized results.
Answers after an update are bit-identical to a fresh dynamic service
started on the already-updated graph.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..applications.budgeted import budgeted_influence_maximization
from ..applications.profit import profit_maximization
from ..applications.targeted import targeted_influence_maximization
from ..cluster.network import NetworkModel
from ..cluster.spec import as_spec
from ..core.config import RunConfig
from ..api import ALGORITHMS
from ..core.diimm import REGISTRY, run
from ..core.pool import SamplePool
from ..graphs.digraph import DirectedGraph, GraphDelta, VersionedGraph

__all__ = ["QUERY_KINDS", "InfluenceService", "Query", "default_costs"]

_APP_KINDS = ("budgeted", "profit", "targeted")

#: Query kinds the service answers: every algorithm
#: (:data:`repro.api.ALGORITHMS`) and the fixed-budget applications.
QUERY_KINDS: Tuple[str, ...] = ALGORITHMS + _APP_KINDS


def default_costs(graph: DirectedGraph) -> np.ndarray:
    """The CLI's degree-scaled seeding costs: ``1 + 9 * outdeg/max``."""
    degrees = graph.out_degrees()
    return 1.0 + degrees / max(int(degrees.max()), 1) * 9.0


@dataclass(frozen=True)
class Query:
    """One seed-selection request.

    ``kind`` selects the algorithm (:data:`QUERY_KINDS`); the remaining
    fields apply per kind — ``k``/``eps``/``delta`` to the IMM family and
    ``targeted``, ``num_rr_sets``/``budget``/``costs``/``targets`` to the
    fixed-budget applications (``costs=None`` uses
    :func:`default_costs`).
    """

    kind: str
    k: int = 10
    eps: float = 0.5
    delta: Optional[float] = None
    num_rr_sets: int = 10000
    budget: Optional[float] = None
    costs: Optional[Tuple[float, ...]] = None
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"kind must be one of {QUERY_KINDS}, got {self.kind!r}"
            )
        if self.costs is not None:
            object.__setattr__(
                self, "costs", tuple(float(c) for c in self.costs)
            )
        if self.targets is not None:
            object.__setattr__(
                self, "targets", tuple(sorted(int(t) for t in set(self.targets)))
            )
        if self.kind == "targeted" and not self.targets:
            raise ValueError("targeted queries need a non-empty target set")
        if self.kind == "budgeted" and (self.budget is None or self.budget <= 0):
            raise ValueError("budgeted queries need a positive budget")

    def fingerprint(self) -> Tuple:
        """A hashable identity for the result cache."""
        return (
            self.kind,
            self.k,
            self.eps,
            self.delta,
            self.num_rr_sets,
            self.budget,
            self.costs,
            self.targets,
        )


@dataclass
class ServiceStats:
    """Counters the service exposes over ``stats`` requests."""

    queries: int = 0
    cache_hits: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, hit: bool) -> None:
        self.queries += 1
        if hit:
            self.cache_hits += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class InfluenceService:
    """A long-lived, warm seed-selection service over shared sample pools.

    Parameters
    ----------
    graph:
        The loaded graph; resident for the service's lifetime.
    machines:
        Cluster width for the distributed pools (the IMM baseline pool is
        always single-machine).
    seed:
        Root RNG seed; every warm answer equals the cold run with this
        seed.
    model:
        Diffusion model of the pools' keyed kernel (D-SUBSIM's pool is
        always IC).  The IMM family and the budgeted / profit
        applications share one pool per ``("imm" | "cluster", model)``:
        their cold runs draw the same coordinates with the same kernel.
    executor:
        An :class:`~repro.cluster.spec.ExecutorSpec` or its string
        shorthand, forwarded to each pool's executor.
    network:
        Master<->slave cost model, forwarded to each pool.
    cache_size:
        Maximum memoized query results (LRU).
    dynamic:
        Serve a mutable graph: wraps ``graph`` in a
        :class:`~repro.graphs.digraph.VersionedGraph` so
        :meth:`apply_update` can repair resident RR sets in place.
        Static services (the default) draw the same sets and refuse
        updates.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        machines: int = 4,
        *,
        seed: int = 0,
        model: str = "ic",
        executor="simulated",
        network: NetworkModel | None = None,
        cache_size: int = 128,
        dynamic: bool = False,
    ) -> None:
        if dynamic and not isinstance(graph, VersionedGraph):
            graph = VersionedGraph(graph)
        self.graph = graph
        self.machines = machines
        self.seed = seed
        self.model = model
        self.dynamic = dynamic
        #: Number of graph updates served so far: bumped by every
        #: :meth:`apply_update`, exposed over ``stats`` and in update
        #: replies.
        self.graph_version = 0
        self._executor_kwargs = dict(executor=as_spec(executor), network=network)
        self._pools: Dict[Tuple, SamplePool] = {}
        self._cache: "OrderedDict[Tuple, object]" = OrderedDict()
        #: Maximum memoized query results (LRU).
        self.cache_size = cache_size
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()
        self.stats = ServiceStats()
        self._closed = False

    # ------------------------------------------------------------------
    # Pool registry
    # ------------------------------------------------------------------
    def _pool_key(self, query: Query) -> Tuple:
        """The key of the pool ``query`` draws from.

        The IMM family's keys are ``("imm" | "cluster", model)``: the
        ``l = 1`` run has its own pool, and D-SUBSIM's is always IC.
        budgeted/profit share the IMM family's cluster pool: their cold
        entry points draw the same coordinates with the same kernel on an
        identically seeded cluster, so the pool's prefixes are their cold
        collections.  Targeted queries get one pool per distinct target
        set: a targeted pool roots its sets in the targets, so different
        target sets are different samples.
        """
        if query.kind == "targeted":
            return ("targeted", query.targets)
        entry = REGISTRY.get(query.kind)
        if entry is None:
            return ("cluster", self.model)
        return (
            "imm" if entry.single_machine else "cluster",
            "ic" if entry.ic_only else self.model,
        )

    def _pool(self, key: Tuple) -> SamplePool:
        """The pool under ``key``, built on first use.

        Builds serialize on their own lock, not the registry's, so a
        cache lookup never waits on a pool being built.
        """
        with self._build_lock:
            with self._lock:
                if self._closed:
                    raise RuntimeError("service is closed")
                pool = self._pools.get(key)
            if pool is not None:
                return pool
            kind, arg = key
            if kind == "targeted":
                args = dict(machines=self.machines, model=self.model, roots=arg)
            else:
                args = dict(machines=1 if kind == "imm" else self.machines, model=arg)
            pool = SamplePool(self.graph, seed=self.seed, **self._executor_kwargs, **args)
            with self._lock:
                if self._closed:  # closed while the pool was being built
                    pool.close()
                    raise RuntimeError("service is closed")
                self._pools[key] = pool
            return pool

    # ------------------------------------------------------------------
    # Query dispatch
    # ------------------------------------------------------------------
    def cached(self, query: Query):
        """The memoized answer to ``query``, or ``None`` on a miss.

        Never blocks on a query: it builds no pool and takes no pool lock
        (the pool's :meth:`~repro.core.pool.SamplePool.signature` is
        published lock-free), only the registry lock, which nothing holds
        for longer than a dict operation.  A hit is counted in
        :attr:`stats`; a miss is counted by the :meth:`query` that
        answers it.  The one cache read: :meth:`query` starts with it.
        """
        fingerprint = query.fingerprint()
        key = self._pool_key(query)
        with self._lock:
            pool = self._pools.get(key)
            if pool is None:
                return None
            # The signature covers collection sizes and the pool's update
            # epoch, so entries from before an in-place repair miss here.
            cache_key = (fingerprint, pool.signature())
            cached = self._cache.get(cache_key)
            if cached is None:
                return None
            self._cache.move_to_end(cache_key)
            self.stats.record(query.kind, hit=True)
            return cached[1]

    def query(self, query: Query):
        """Answer ``query`` warm, memoizing by pool state.

        Returns the same result object the cold entry point returns — an
        :class:`~repro.core.result.IMResult` for the IMM family, an
        :class:`~repro.applications.result.ApplicationResult` for the
        applications.
        """
        result = self.cached(query)
        if result is not None:
            return result
        poolkey = self._pool_key(query)
        pool = self._pool(poolkey)
        # Under the pool lock until the entry is stored, so an update
        # cannot land between the answer and its key: the entry is keyed
        # on the pool state the answer was computed on.
        with pool.lock:
            if query.kind in REGISTRY:
                result = self._run_im(query, pool)
            else:
                result = self._run_app(query, pool)
            # Key on the pool state *after* the query: identical repeats
            # top up nothing, so they hit this entry.
            cache_key = (query.fingerprint(), pool.signature())
            with self._lock:
                self.stats.record(query.kind, hit=False)
                # Values remember which pool produced them, so
                # apply_update can evict exactly the repaired pools' entries.
                self._cache[cache_key] = (poolkey, result)
                self._cache.move_to_end(cache_key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return result

    def _run_im(self, query: Query, pool: SamplePool):
        config = RunConfig(
            graph=self.graph,
            k=query.k,
            machines=pool.num_machines,
            eps=query.eps,
            delta=query.delta,
            model=pool.model,
            seed=self.seed,
        )
        return run(config, query.kind, pool=pool)

    def _run_app(self, query: Query, pool: SamplePool):
        common = dict(
            num_machines=pool.num_machines,
            num_rr_sets=query.num_rr_sets,
            model=self.model,
            seed=self.seed,
            pool=pool,
        )
        if query.kind == "targeted":
            return targeted_influence_maximization(
                self.graph, list(query.targets), query.k, **common
            )
        costs = query.costs if query.costs is not None else default_costs(self.graph)
        if query.kind == "budgeted":
            return budgeted_influence_maximization(
                self.graph, costs, query.budget, **common
            )
        return profit_maximization(self.graph, costs, **common)

    # ------------------------------------------------------------------
    # Dynamic graph updates
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta) -> Dict:
        """Land ``delta`` on the served graph and repair every pool.

        Requires ``dynamic=True``.  Takes every resident pool's lock (in
        a fixed order, after in-flight queries drain), applies the delta
        to the shared :class:`~repro.graphs.digraph.VersionedGraph`
        once, repairs each pool's collections in place, evicts the cache
        entries of pools whose contents were rewritten, and bumps
        :attr:`graph_version`.  A delta some resident pool's model cannot
        sample (:meth:`SamplePool.check_graph
        <repro.core.pool.SamplePool.check_graph>`) is refused before
        anything changes.  Returns a JSON-safe summary: the new
        graph version, the number of changes, how many RR sets each pool
        re-examined (``repaired``: the sets containing a touched node)
        and how many of those it redrew (``redrawn``: the ones whose
        touched rows changed outcome; the rest kept their bytes), and how
        many cache entries were evicted.
        """
        if not self.dynamic:
            raise RuntimeError(
                "this service is static; start it with dynamic=True to "
                "accept graph updates"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            pools = dict(self._pools)

        def validate(candidate: DirectedGraph) -> None:
            for pool in pools.values():
                pool.check_graph(candidate)

        with ExitStack() as stack:
            for key in sorted(pools, key=repr):
                stack.enter_context(pools[key].lock)
            touched = self.graph.apply(delta, validate=validate)
            redrawn_before = {
                key: pool.lifetime_metrics.sets_redrawn for key, pool in pools.items()
            }
            repaired = {
                key: pool.repair(touched) for key, pool in pools.items()
            }
            rewritten = {
                key for key, counts in repaired.items() if any(counts.values())
            }
            with self._lock:
                evicted = [
                    cache_key
                    for cache_key, (poolkey, _) in self._cache.items()
                    if poolkey in rewritten
                ]
                for cache_key in evicted:
                    del self._cache[cache_key]
                self.graph_version += 1
                version = self.graph_version
        return {
            "graph_version": version,
            "num_changes": delta.num_changes,
            "repaired": {
                repr(key): sum(counts.values()) for key, counts in repaired.items()
            },
            "redrawn": {
                repr(key): pool.lifetime_metrics.sets_redrawn - redrawn_before[key]
                for key, pool in pools.items()
            },
            "evicted": len(evicted),
        }

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def pool_sizes(self) -> Dict[str, Dict[str, list]]:
        """Per-pool, per-key collection sizes (stringified pool keys)."""
        with self._lock:
            pools = dict(self._pools)
        return {repr(key): pool.sizes() for key, pool in pools.items()}

    def describe(self) -> Dict:
        """The ``stats`` payload: counters, pools, and cache occupancy."""
        with self._lock:
            return {
                "queries": self.stats.queries,
                "cache_hits": self.stats.cache_hits,
                "by_kind": dict(self.stats.by_kind),
                "cache_entries": len(self._cache),
                "num_pools": len(self._pools),
                "machines": self.machines,
                "dynamic": self.dynamic,
                "graph_version": self.graph_version,
            }

    def close(self) -> None:
        """Release every pool (worker processes, shared memory). Idempotent."""
        with self._lock:
            self._closed = True
            pools = list(self._pools.values())
            self._pools.clear()
            self._cache.clear()
        for pool in pools:
            pool.close()

    def __enter__(self) -> "InfluenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"InfluenceService(machines={self.machines}, seed={self.seed}, "
            f"pools={len(self._pools)}, queries={self.stats.queries})"
        )
