"""The SamplePool: RR-sample lifetime split from query lifetime.

Every cold entry point couples three lifetimes that have no business
being coupled: the executor (worker processes, shared-memory graph), the
per-machine RR collections, and the query being answered.  A
:class:`SamplePool` owns the first two for as long as the caller wants —
typically the lifetime of a :class:`~repro.serve.service.InfluenceService`
— and answers any number of queries against *prefixes* of the same
collections:

* each machine's collection is append-only and grown by topping up
  (:meth:`ensure`): set ``i`` of collection ``key`` on machine ``m`` is
  drawn at its coordinates ``(seed, key, m, i)``
  (:func:`~repro.ris.rrset.sample_set_range`), no state carried over;
* a query never reads the collections directly — it reads
  :class:`~repro.ris.flat.FlatPrefixView` windows
  (:meth:`view_stores`) whose limits follow the query's own sampling
  schedule, so the sets it sees are bit-identical to the collections a
  cold run of that schedule would have generated (a set's bytes depend
  only on its coordinates and the graph, not on wave boundaries);
* finished queries donate their final
  :class:`~repro.coverage.state.CoverageState` back to the pool
  (:meth:`donate_coverage`); later queries whose first-round prefixes
  dominate a donated watermark fork it copy-on-write
  (:meth:`fork_coverage`) instead of re-aggregating from zero.

The pool is thread-safe by serialization: :meth:`query_metrics` — which
every query must wrap its phases in — holds the pool lock, swaps a fresh
:class:`~repro.cluster.metrics.RunMetrics` onto the executor for the
query, and merges it into the pool's lifetime metrics afterwards.
Queries against *different* pools run concurrently.

Bit-for-bit warm/cold equivalence holds for every pool: a set's bytes
are a function of its coordinates and the graph (the model's keyed
kernel, :mod:`repro.ris.vectorized`, or a custom sampler that takes set
keys, such as the targeted wrapper over it).

Dynamic graphs
--------------
A pool over a :class:`~repro.graphs.digraph.VersionedGraph` survives
graph updates: when :meth:`apply_update` lands a
:class:`~repro.graphs.digraph.GraphDelta` the pool regenerates *only*
the sets whose traversal consulted a changed in-row
(:meth:`~repro.ris.flat.FlatRRCollection.affected_sets`) — same
coordinates, new graph — and splices them in place under stable ids
(:meth:`~repro.ris.flat.FlatRRCollection.replace_sets`).
Donated coverage snapshots are repaired by retraction deltas instead of
being discarded, and the pool's :meth:`signature` carries an update
epoch so the serving layer's result cache misses exactly the entries a
repair invalidated.  The differential anchor: a repaired warm pool is
bit-identical to a pool built cold on the already-updated graph with
the same seed and schedule.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.executor import GeneratePhase, MapPhase, executor_scope, make_executor
from ..cluster.spec import as_spec
from ..cluster.metrics import GENERATION, RunMetrics
from ..cluster.network import NetworkModel
from ..coverage.state import CoverageState
from ..graphs.digraph import GraphDelta, VersionedGraph
from ..ris.flat import FlatPrefixView, FlatRRCollection, append_batch, gather_rows
from ..ris import check_method_vestige
from ..ris.rrset import RRSampler, sample_set_range

__all__ = ["SamplePool"]

#: Donated coverage snapshots kept per collection key.
MAX_CACHED_COVERAGE = 4


class SamplePool:
    """A resident, shared, append-only RR-sample pool.

    Parameters
    ----------
    graph:
        The (already loaded) :class:`~repro.graphs.digraph.DirectedGraph`.
    machines:
        Cluster width ``l``; fixed for the pool's lifetime.
    seed:
        Root RNG seed.  Warm results equal cold runs with this seed.
    model:
        Diffusion model of the pool's keyed kernel (``make_sampler``'s).
    method:
        Vestige (:data:`repro.ris.METHOD_VESTIGES`): accepted and echoed
        by :attr:`method`, which the frozen benchmark harness reads back.
    executor:
        An :class:`~repro.cluster.spec.ExecutorSpec` or its string
        shorthand (``"simulated"``, ``"multiprocessing:4"``,
        ``"socket:..."``); the pool owns the executor (worker
        processes, shared-memory graph, socket connections) until
        :meth:`close`.
    rng_scheme:
        Vestige: every pool draws coordinate-keyed sets, what ``"per-set"``
        used to select.  Accepted with exactly that value because the frozen
        benchmark harness passes it; the next ``[benchmark]`` PR drops it.
    sampler:
        Optional custom :class:`~repro.ris.rrset.RRSampler` (e.g. a
        :class:`~repro.applications.targeted.TargetedSampler`) used for
        generation instead of the executor's kernel for ``model``.  It
        must take set keys (``sample_keys``): pools draw every set at its
        coordinates, and a generator-driven scalar sampler cannot.
    sampler_factory:
        Optional ``graph -> RRSampler`` callable building the custom
        sampler; required instead of ``sampler`` when the pool must
        survive graph updates (:meth:`repair` rebuilds the sampler
        against the mutated graph, which a fixed instance cannot do).
    """

    def __init__(
        self,
        graph,
        machines: int = 1,
        *,
        seed: int = 0,
        model: str = "ic",
        method: str = "bfs",
        executor="simulated",
        network: NetworkModel | None = None,
        rng_scheme: str = "per-set",
        sampler: RRSampler | None = None,
        sampler_factory=None,
    ) -> None:
        check_method_vestige(method)
        if rng_scheme != "per-set":
            raise ValueError(
                f"rng_scheme is a vestige: only 'per-set' is accepted, got {rng_scheme!r}"
            )
        if sampler is not None and sampler_factory is not None:
            raise ValueError("pass either sampler or sampler_factory, not both")
        spec = as_spec(executor)
        self.graph = graph
        self.seed = seed
        self.model = model
        self.method = method
        self.executor = make_executor(
            spec, SimulatedCluster(machines, network=network, seed=seed), graph=graph
        )
        try:
            self._sampler_factory = sampler_factory
            self._sampler = (
                sampler_factory(graph) if sampler_factory is not None else sampler
            )
            if self._sampler is not None and not hasattr(self._sampler, "sample_keys"):
                raise TypeError(
                    f"{type(self._sampler).__name__} cannot take set keys (no "
                    "sample_keys), and a pool draws every RR set at its coordinates: "
                    "pass a keyed kernel (make_sampler) or a TargetedSampler over one"
                )
        except BaseException:
            # A raising sampler factory must not leak the worker pool /
            # shared-memory graph the executor just acquired.
            self.executor.close()
            raise
        self._stores: Dict[str, List[FlatRRCollection]] = {}
        self._coverage_cache: Dict[str, List[CoverageState]] = {}
        self._lock = threading.RLock()
        self.queries_served = 0
        #: Number of graph updates repaired into the pool; part of
        #: :meth:`signature` so repaired contents miss stale cache entries.
        self.updates = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.executor.num_machines

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def lock(self) -> threading.RLock:
        """The pool-wide lock serializing queries (held by
        :meth:`query_metrics`)."""
        return self._lock

    @property
    def lifetime_metrics(self) -> RunMetrics:
        """Phases accumulated across every query served so far."""
        return self.executor.metrics

    def sizes(self) -> Dict[str, List[int]]:
        """Per-machine collection sizes for each key."""
        with self._lock:
            return {
                key: [store.num_sets for store in stores]
                for key, stores in self._stores.items()
            }

    def signature(self) -> Tuple:
        """A hashable snapshot of the pool's contents — the pool-state
        component of the serving layer's query-cache key.

        Covers per-key collection sizes *and* the update epoch: an
        in-place repair keeps every size but rewrites contents, so the
        epoch is what makes pre-update cache entries miss.
        """
        with self._lock:
            return (
                self.updates,
                tuple(
                    sorted(
                        (key, tuple(store.num_sets for store in stores))
                        for key, stores in self._stores.items()
                    )
                ),
            )

    # ------------------------------------------------------------------
    # Growth and views
    # ------------------------------------------------------------------
    def stores(self, key: str) -> List[FlatRRCollection]:
        """The backing per-machine collections for ``key`` (created on
        first use)."""
        with self._lock:
            stores = self._stores.get(key)
            if stores is None:
                stores = [
                    FlatRRCollection(self.num_nodes)
                    for _ in range(self.num_machines)
                ]
                self._stores[key] = stores
            return stores

    def view_stores(self, keys: Sequence[str]) -> Dict[str, List[FlatPrefixView]]:
        """Fresh zero-limit prefix views, one per machine per key.

        Each query gets its own views; their limits advance with the
        query's schedule while the backing collections are shared.
        """
        return {
            key: [FlatPrefixView(store, 0) for store in self.stores(key)]
            for key in keys
        }

    def ensure(
        self, key: str, needed: Sequence[int], label: str = "pool/ensure"
    ) -> int:
        """Top collection ``key`` up to ``needed[i]`` sets on machine ``i``.

        Only the shortfall is generated — the next sets of ``key`` by
        index; machines already at or past their target draw nothing.
        Returns the number of RR sets generated.
        """
        with self._lock:
            stores = self.stores(key)
            if len(needed) != len(stores):
                raise ValueError(
                    f"expected {len(stores)} per-machine targets, got {len(needed)}"
                )
            counts = [
                max(0, int(target) - store.num_sets)
                for target, store in zip(needed, stores)
            ]
            total = sum(counts)
            if total == 0:
                return 0
            if self._sampler is None:
                self.executor.run_phase(
                    GeneratePhase(
                        label,
                        counts=tuple(counts),
                        targets=tuple(stores),
                        model=self.model,
                        key=key,
                    )
                )
            else:
                sampler, seed = self._sampler, self.seed

                def top_up(mid: int) -> int:
                    first = stores[mid].num_sets
                    ids = range(first, first + counts[mid])
                    if ids:
                        append_batch(stores[mid], sample_set_range(sampler, seed, mid, ids, key))
                    return counts[mid]

                self.executor.run_phase(MapPhase(label, top_up, category=GENERATION))
            return total

    # ------------------------------------------------------------------
    # Dynamic-graph repair
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta) -> Dict[str, int]:
        """Land ``delta`` on the pool's graph and repair every collection.

        The graph must be a :class:`~repro.graphs.digraph.VersionedGraph`
        (it mutates in place, preserving the identity
        :meth:`check_config` pins).  Returns, per collection key, how
        many RR sets were regenerated.
        """
        with self._lock:
            if not isinstance(self.graph, VersionedGraph):
                raise TypeError(
                    "apply_update needs a VersionedGraph; wrap the base graph "
                    "in VersionedGraph(graph) when building the pool"
                )
            touched = self.graph.apply(delta)
            return self.repair(touched)

    def repair(self, touched=None) -> Dict[str, int]:
        """Regenerate the RR sets invalidated by a graph mutation.

        ``touched`` is what :meth:`VersionedGraph.apply
        <repro.graphs.digraph.VersionedGraph.apply>` returned: the
        ascending node ids whose in-rows changed, or ``None`` for full
        invalidation (node additions).  Only sets containing a touched
        node are redrawn — at the coordinates a cold pool on the updated
        graph would draw them — and spliced in place under stable ids,
        so repaired collections are bit-identical to cold regeneration.
        Donated coverage snapshots are patched by retraction deltas (full
        invalidation drops them instead).  Metered as generation phases
        in the pool's lifetime metrics.
        """
        with self._lock:
            self.executor.refresh_graph()
            if self._sampler_factory is not None:
                self._sampler = self._sampler_factory(self.graph)
            elif self._sampler is not None:
                raise ValueError(
                    "the pool's fixed custom sampler cannot be rebuilt against "
                    "the updated graph; construct the pool with "
                    "sampler_factory= instead of sampler="
                )
            repaired: Dict[str, int] = {}
            for key in list(self._stores):
                stores = self._stores[key]
                sampler = (
                    self._sampler
                    if self._sampler is not None
                    else self.executor.sampler(self.model)
                )
                if touched is None:
                    repaired[key] = self._regenerate_all(key, stores, sampler)
                else:
                    repaired[key] = self._repair_touched(key, stores, sampler, touched)
            if touched is None:
                self._coverage_cache.clear()
            # A repair that rewrote nothing left every collection — and
            # therefore every cached result — bit-identical, so the epoch
            # (and with it the serving cache) only moves on real rewrites.
            if touched is None or any(repaired.values()):
                self.updates += 1
            return repaired

    def _repair_touched(
        self,
        key: str,
        stores: List[FlatRRCollection],
        sampler: RRSampler,
        touched: np.ndarray,
    ) -> int:
        """Redraw and splice the sets containing a touched node."""
        seed = self.seed
        cache = tuple(self._coverage_cache.get(key, ()))

        def regen(mid: int) -> int:
            store = stores[mid]
            ids = store.affected_sets(touched)
            if ids.size == 0:
                return 0
            # Old contents (id order) for the coverage retraction deltas.
            old_nodes = gather_rows(store.nodes, store.offsets, ids)
            old_sizes = store.offsets[ids + 1] - store.offsets[ids]
            old_bounds = np.concatenate(([0], np.cumsum(old_sizes)))
            # One blocked draw: every id redrawn at its own coordinates.
            batch = sample_set_range(sampler, seed, mid, ids, key)
            store.replace_sets(ids, batch)
            for state in cache:
                # Only ids below the snapshot's watermark were ever
                # ingested; retract their old contents, add the new.
                below = int(np.searchsorted(ids, state.watermarks[mid]))
                if below:
                    state.repair(
                        mid,
                        old_nodes[: old_bounds[below]],
                        batch.nodes[: batch.offsets[below]],
                    )
            return int(ids.size)

        results = self.executor.run_phase(
            MapPhase(f"pool/repair/{key}", regen, category=GENERATION)
        ).results
        return int(sum(results))

    def _regenerate_all(
        self, key: str, stores: List[FlatRRCollection], sampler: RRSampler
    ) -> int:
        """Full invalidation: rebuild each machine's collection cold.

        Node additions change the root-draw range (and possibly the node
        universe the stores validate against), so every set is redrawn
        into a fresh collection of the graph's current size; set counts
        are preserved so outstanding schedules resume unchanged.
        """
        seed = self.seed
        num_nodes = self.num_nodes
        counts = [store.num_sets for store in stores]

        def rebuild(mid: int) -> int:
            fresh = FlatRRCollection(num_nodes)
            if counts[mid]:
                append_batch(
                    fresh, sample_set_range(sampler, seed, mid, range(counts[mid]), key)
                )
            stores[mid] = fresh
            return counts[mid]

        results = self.executor.run_phase(
            MapPhase(f"pool/rebuild/{key}", rebuild, category=GENERATION)
        ).results
        return int(sum(results))

    # ------------------------------------------------------------------
    # Coverage snapshot cache
    # ------------------------------------------------------------------
    def fork_coverage(self, key: str, limits: Sequence[int]) -> CoverageState | None:
        """Fork the best donated coverage snapshot usable at ``limits``.

        Usable means watermarks elementwise ``<=`` the query's first
        ingest limits — the snapshot covers a strict prefix of what the
        query sees, so folding the remainder on top reproduces a
        from-scratch aggregation integer for integer.  Returns ``None``
        when no donated snapshot qualifies.
        """
        with self._lock:
            best: CoverageState | None = None
            for state in self._coverage_cache.get(key, ()):
                if all(w <= lim for w, lim in zip(state.watermarks, limits)) and (
                    best is None or sum(state.watermarks) > sum(best.watermarks)
                ):
                    best = state
            return best.fork() if best is not None else None

    def donate_coverage(self, key: str, state: CoverageState) -> None:
        """Adopt a finished query's coverage state into the snapshot cache.

        The donor must not mutate the state afterwards; the pool only
        ever hands out copy-on-write forks of it.
        """
        with self._lock:
            cache = self._coverage_cache.setdefault(key, [])
            marks = list(state.watermarks)
            if any(cached.watermarks == marks for cached in cache):
                return
            cache.append(state)
            if len(cache) > MAX_CACHED_COVERAGE:
                cache.pop(0)

    # ------------------------------------------------------------------
    # Per-query metering
    # ------------------------------------------------------------------
    @contextmanager
    def query_metrics(self) -> Iterator[RunMetrics]:
        """Serialize one query and meter it in isolation.

        Holds the pool lock for the duration and meters the query as a
        lent-executor run (:func:`~repro.cluster.executor.executor_scope`):
        its phases are its own, merged into the pool's lifetime metrics
        on exit.
        """
        with self._lock:
            try:
                with executor_scope(self.executor, owned=False) as metrics:
                    yield metrics
            finally:
                self.queries_served += 1

    # ------------------------------------------------------------------
    # Config compatibility
    # ------------------------------------------------------------------
    def check_streams(self, graph, machines: int | None, seed: int, model: str) -> None:
        """Reject a query whose cold run would not draw this pool's streams
        (``machines=None`` skips the width check)."""
        if machines is not None and self.num_machines != machines:
            raise ValueError(
                f"pool has {self.num_machines} machines, query needs {machines}"
            )
        if graph is not self.graph:
            raise ValueError("the query's graph is not the pool's graph")
        if seed != self.seed:
            raise ValueError(
                f"seed={seed} differs from the pool seed {self.seed}; "
                "warm results would not match a cold run"
            )
        if model != self.model:
            raise ValueError(f"pool samples model {self.model!r}; query wants {model!r}")

    def check_config(self, config, machines: int | None = None) -> None:
        """Reject a :class:`~repro.core.config.RunConfig` whose results
        could not equal a cold run over this pool's streams."""
        self.check_streams(config.graph, machines, config.seed, config.model)
        if config.backend != "flat":
            hint = (
                "; sketch register banks cannot be windowed to a query's "
                "prefix — run sketch queries cold via repro.api.run"
                if config.backend == "sketch"
                else ""
            )
            raise ValueError(
                f"warm pools are flat-store only, got backend={config.backend!r}{hint}"
            )
        if config.checkpoint_dir is not None or config.resume:
            raise ValueError("checkpointing is not supported on warm-pool queries")
        if config.faults is not None:
            raise ValueError("fault injection is not supported on warm-pool queries")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor (worker pool, shared memory).  Idempotent."""
        self._closed = True
        self.executor.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SamplePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        sizes = {key: sum(s.num_sets for s in stores) for key, stores in self._stores.items()}
        return (
            f"SamplePool(machines={self.num_machines}, model={self.model!r}, "
            f"executor={self.executor.name!r}, "
            f"sets={sizes})"
        )
